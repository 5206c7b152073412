#!/usr/bin/env python3
"""Perf-regression gate over BENCH_parallel.json artifacts.

Compares the fresh bench output against the previous CI run's artifact and
fails (exit 1) when any matched configuration regressed by more than the
threshold in total wall-clock. Configurations are matched on
(strategy, threads, phases); configs present in only one file are reported
but never fail the gate (the matrix is allowed to evolve).

Per-phase mean latencies (`mean_unit_ms`: mean phase time under the phased
scan, mean query time under per-query) are compared too, but only as
advisory `::warning::` annotations — phase-time variance on shared runners
is higher than total wall-clock variance, so unit regressions never flip
the exit code.

Emits GitHub Actions `::warning::` annotations so the result is visible on
the job even when the calling step is non-blocking.

`--server-old/--server-new` additionally diff BENCH_server.json artifacts
(the serving-layer bench: sessions/sec and the p50/p99 gap between pushed
progress frames per (transport, clients, phases) configuration). Server
numbers ride on the socket, whose shared-runner variance is even higher
than phase timings, so they are ALWAYS advisory `::warning::` only — they
never flip the exit code.

`--vectorized-old/--vectorized-new` additionally diff BENCH_vectorized.json
artifacts (per-kernel throughput and the fused-plan wall clock of the dense
inner loop vs the shared scan's hash tier). Like the server bench these are
ALWAYS advisory `::warning::` only — except that the gate also warns (still
advisory) if the dense path stopped beating the hash tier, the exact
regression the subsystem exists to close.

Usage: perf_gate.py OLD.json NEW.json [--threshold 0.30]
                    [--server-old OLD_SERVER.json --server-new NEW_SERVER.json]
                    [--vectorized-old OLD_VEC.json --vectorized-new NEW_VEC.json]
"""

import argparse
import json
import sys


def load_runs(path):
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for run in doc.get("runs", []):
        strategy = run.get("strategy")
        # A per-query run is always one phase, but artifacts written before
        # every strategy ran through the phased driver report 0 for it, and
        # artifacts written before the phased engine carry no "phases" key
        # at all; normalize both to what the bench emits today so old-vs-new
        # comparisons keep matching.
        phases = 1 if strategy == "per-query" else run.get("phases", 1)
        runs[(strategy, run.get("threads"), phases)] = run
    return runs


def compare_server_sweep(old_doc, new_doc, threshold):
    """Advisory diff of the push connection sweep (64/256/1k push
    sessions on one epoll loop): warn when p99 frame-delivery latency or
    session throughput regressed past the threshold. Artifacts written
    before the event-loop PR carry no "sweep" key and are skipped."""
    old_runs = {(r.get("transport"), r.get("sessions"), r.get("phases")): r
                for r in old_doc.get("sweep", [])}
    new_runs = {(r.get("transport"), r.get("sessions"), r.get("phases")): r
                for r in new_doc.get("sweep", [])}
    warnings = 0
    if not new_runs:
        return warnings
    print(f"\n{'sweep config':>28} {'old s/s':>9} {'new s/s':>9} "
          f"{'old fp99':>9} {'new fp99':>9}")
    for key in sorted(new_runs, key=str):
        transport, sessions, phases = key
        label = f"{transport} n={sessions} p={phases}"
        new = new_runs[key]
        old = old_runs.get(key)
        # A run that skipped negative-latency frame samples measured under
        # clock trouble (suspended runner, VM migration); its percentiles
        # are not comparable — skip the config rather than diff noise.
        skipped_neg = [r for r in (old, new)
                       if r is not None and r.get("negative_frames", 0) > 0]
        if skipped_neg:
            warnings += 1
            print(f"::warning::sweep config {label} skipped (advisory): "
                  f"artifact recorded negative-latency frame samples "
                  f"(old={old.get('negative_frames', 0) if old else '-'}, "
                  f"new={new.get('negative_frames', 0)})")
            continue
        if old is None:
            print(f"{label:>28} {'-':>9} {new.get('sessions_per_sec', 0):>9.1f}"
                  f" {'-':>9} {new.get('frame_p99_ms', 0):>9.3f}  (new config)")
            continue
        old_sps = old.get("sessions_per_sec", 0)
        new_sps = new.get("sessions_per_sec", 0)
        old_p99 = old.get("frame_p99_ms", 0)
        new_p99 = new.get("frame_p99_ms", 0)
        print(f"{label:>28} {old_sps:>9.1f} {new_sps:>9.1f} "
              f"{old_p99:>9.3f} {new_p99:>9.3f}")
        if old_sps > 0 and (old_sps - new_sps) / old_sps > threshold:
            warnings += 1
            print(f"::warning::sweep throughput regression (advisory): "
                  f"{label} went {old_sps:.1f} -> {new_sps:.1f} sessions/sec "
                  f"(threshold {threshold:.0%})")
        if old_p99 > 0 and (new_p99 - old_p99) / old_p99 > threshold:
            warnings += 1
            print(f"::warning::sweep p99 frame-delivery regression "
                  f"(advisory): {label} went {old_p99:.3f}ms -> "
                  f"{new_p99:.3f}ms (threshold {threshold:.0%})")
    return warnings


def compare_result_cache(old_doc, new_doc, threshold):
    """Advisory diff of the zipfian result-cache scenario: warm-vs-cold
    sessions/sec on a near-duplicate request mix. Warns when the warm-run
    speedup shrank past the threshold, when the bench stopped exercising
    the cache (0 hits), or when warm results diverged from cold ones.
    Artifacts written before the cache PR carry no "result_cache" key and
    are skipped."""
    new = new_doc.get("result_cache")
    warnings = 0
    if not new:
        return warnings
    old = old_doc.get("result_cache")
    print(f"\n{'result cache':>28} {'cold s/s':>9} {'warm s/s':>9} "
          f"{'speedup':>8} {'hits':>6}")
    old_speedup = old.get("speedup", 0) if old else 0
    new_speedup = new.get("speedup", 0)
    label = (f"zipf n={new.get('sessions')} pool={new.get('pool')} "
             f"ov={new.get('overlap', 0):.0%}")
    print(f"{label:>28} {new.get('cold_sessions_per_sec', 0):>9.1f} "
          f"{new.get('warm_sessions_per_sec', 0):>9.1f} "
          f"{new_speedup:>7.1f}x {new.get('cache_hits', 0):>6}")
    if not new.get("bit_identical", True):
        warnings += 1
        print("::warning::result cache DIVERGENCE (advisory): warm sessions "
              "returned different rankings than cold ones — the cache must "
              "never change answers")
    if new.get("cache_hits", 0) == 0:
        warnings += 1
        print("::warning::result cache scenario recorded 0 hits (advisory): "
              "the zipfian mix no longer exercises adoption")
    if old_speedup > 0 and (old_speedup - new_speedup) / old_speedup > threshold:
        warnings += 1
        print(f"::warning::result cache speedup regression (advisory): "
              f"warm-vs-cold went {old_speedup:.1f}x -> {new_speedup:.1f}x "
              f"(threshold {threshold:.0%})")
    return warnings


def compare_server_metrics(old_doc, new_doc, threshold):
    """Advisory diff of the server-side obs histograms the sweep records
    (`server_metrics`: p50/p95/p99 µs per request type, measured in the
    server — no socket hop). Artifacts written before the observability PR
    carry no such key and are skipped. Quantiles are bucket upper bounds
    (log-spaced powers of two), so any movement is at least a full bucket —
    still advisory, but much less noisy than wire latencies."""
    new_metrics = new_doc.get("server_metrics")
    warnings = 0
    if not new_metrics:
        return warnings
    old_metrics = old_doc.get("server_metrics", {})
    print(f"\n{'server metric':>30} {'old p99us':>10} {'new p99us':>10}")
    for name in sorted(new_metrics):
        new = new_metrics[name]
        old = old_metrics.get(name)
        if old is None:
            print(f"{name:>30} {'-':>10} {new.get('p99_us', 0):>10}"
                  f"  (new metric)")
            continue
        old_p99 = old.get("p99_us", 0)
        new_p99 = new.get("p99_us", 0)
        print(f"{name:>30} {old_p99:>10} {new_p99:>10}")
        if old_p99 > 0 and (new_p99 - old_p99) / old_p99 > threshold:
            warnings += 1
            print(f"::warning::server-side p99 regression (advisory): "
                  f"{name} went {old_p99}us -> {new_p99}us "
                  f"(threshold {threshold:.0%})")
    return warnings


def compare_server(old_path, new_path, threshold):
    """Advisory diff of BENCH_server.json artifacts: warn when throughput
    (sessions/sec) drops, the p99 gap between pushed progress frames grows
    past the threshold, or the connection sweep's frame-delivery latency
    regressed. Artifacts written while the per-client runs still polled
    carry `next_p99_ms` instead of `frame_gap_p99_ms`; their latency is a
    different quantity, so it is reported as a schema change and not
    compared. Returns the number of advisory warnings; never fails the
    gate."""
    def load(path):
        with open(path) as f:
            return json.load(f)

    old_doc, new_doc = load(old_path), load(new_path)
    old_runs = {(r.get("transport"), r.get("clients"), r.get("phases")): r
                for r in old_doc.get("runs", [])}
    new_runs = {(r.get("transport"), r.get("clients"), r.get("phases")): r
                for r in new_doc.get("runs", [])}
    warnings = compare_server_sweep(old_doc, new_doc, threshold)
    warnings += compare_result_cache(old_doc, new_doc, threshold)
    warnings += compare_server_metrics(old_doc, new_doc, threshold)
    print(f"\n{'server config':>28} {'old s/s':>9} {'new s/s':>9} "
          f"{'old p99':>9} {'new p99':>9}")
    for key in sorted(new_runs, key=str):
        transport, clients, phases = key
        label = f"{transport} c={clients} p={phases}"
        new = new_runs[key]
        old = old_runs.get(key)
        if old is None:
            print(f"{label:>28} {'-':>9} {new.get('sessions_per_sec', 0):>9.1f}"
                  f" {'-':>9} {new.get('frame_gap_p99_ms', 0):>9.3f}"
                  f"  (new config)")
            continue
        old_sps = old.get("sessions_per_sec", 0)
        new_sps = new.get("sessions_per_sec", 0)
        old_p99 = old.get("frame_gap_p99_ms", 0)
        new_p99 = new.get("frame_gap_p99_ms", 0)
        old_p99_text = f"{old_p99:>9.3f}" if "frame_gap_p99_ms" in old \
            else f"{'-':>9}"
        print(f"{label:>28} {old_sps:>9.1f} {new_sps:>9.1f} "
              f"{old_p99_text} {new_p99:>9.3f}")
        if "frame_gap_p99_ms" not in old and "next_p99_ms" in old:
            print(f"{'':>28} schema changed, not compared: the old artifact "
                  f"has next_p99_ms (polling round-trip), the new one "
                  f"frame_gap_p99_ms (gap between pushed frames)")
        if old_sps > 0 and (old_sps - new_sps) / old_sps > threshold:
            warnings += 1
            print(f"::warning::server throughput regression (advisory): "
                  f"{label} went {old_sps:.1f} -> {new_sps:.1f} sessions/sec "
                  f"(threshold {threshold:.0%})")
        if old_p99 > 0 and (new_p99 - old_p99) / old_p99 > threshold:
            warnings += 1
            print(f"::warning::server p99 frame-gap regression (advisory): "
                  f"{label} went {old_p99:.3f}ms -> {new_p99:.3f}ms "
                  f"(threshold {threshold:.0%})")
    return warnings


def compare_vectorized(old_path, new_path, threshold):
    """Advisory diff of BENCH_vectorized.json artifacts: warn when a kernel
    or fused-path run slowed past the threshold, or when the dense path no
    longer beats the hash tier. Returns the number of advisory warnings;
    never fails the gate."""
    def load(path):
        with open(path) as f:
            return json.load(f)

    old_doc, new_doc = load(old_path), load(new_path)
    old_runs = {r.get("name"): r for r in old_doc.get("runs", [])}
    new_runs = {r.get("name"): r for r in new_doc.get("runs", [])}
    warnings = 0
    print(f"\n{'vectorized run':>30} {'old(ms)':>10} {'new(ms)':>10} "
          f"{'delta':>8}")
    for name in sorted(new_runs):
        new = new_runs[name]
        old = old_runs.get(name)
        if old is None:
            print(f"{name:>30} {'-':>10} {new.get('total_ms', 0):>10.2f}"
                  f"   (new run)")
            continue
        old_ms, new_ms = old.get("total_ms", 0), new.get("total_ms", 0)
        delta = (new_ms - old_ms) / max(old_ms, 1e-9)
        print(f"{name:>30} {old_ms:>10.2f} {new_ms:>10.2f} {delta:>+7.1%}")
        if delta > threshold:
            warnings += 1
            print(f"::warning::vectorized bench regression (advisory): "
                  f"{name} went {old_ms:.2f}ms -> {new_ms:.2f}ms "
                  f"({delta:+.1%}, threshold {threshold:.0%})")
    if not new_doc.get("vec_beats_hash", True):
        warnings += 1
        print("::warning::vectorized fused plan no longer beats the hash "
              "tier on one core (advisory) — the regression the dense "
              "kernels exist to close is back")
    if (new_doc.get("simd_isa", "scalar") != "scalar"
            and not new_doc.get("simd_beats_scalar_compare", True)):
        warnings += 1
        print("::warning::simd compare kernel no longer beats the scalar "
              "kernel (advisory) — the explicit-SIMD tier is not paying "
              f"for itself (isa={new_doc.get('simd_isa')})")
    return warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="previous run's BENCH_parallel.json")
    parser.add_argument("new", help="this run's BENCH_parallel.json")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional total_ms growth (0.30 = 30%%)")
    parser.add_argument("--server-old", default=None,
                        help="previous run's BENCH_server.json (advisory)")
    parser.add_argument("--server-new", default=None,
                        help="this run's BENCH_server.json (advisory)")
    parser.add_argument("--vectorized-old", default=None,
                        help="previous run's BENCH_vectorized.json (advisory)")
    parser.add_argument("--vectorized-new", default=None,
                        help="this run's BENCH_vectorized.json (advisory)")
    args = parser.parse_args()

    old_runs = load_runs(args.old)
    new_runs = load_runs(args.new)

    regressions = []
    unit_regressions = []
    print(f"{'strategy':>20} {'threads':>7} {'phases':>6} "
          f"{'old(ms)':>10} {'new(ms)':>10} {'delta':>8} "
          f"{'old-unit':>9} {'new-unit':>9} {'u-delta':>8}")
    for key in sorted(new_runs, key=str):
        new = new_runs[key]
        old = old_runs.get(key)
        strategy, threads, phases = key
        if old is None:
            print(f"{strategy:>20} {threads:>7} {phases:>6} "
                  f"{'-':>10} {new['total_ms']:>10.2f}   (new config)")
            continue
        delta = (new["total_ms"] - old["total_ms"]) / max(old["total_ms"], 1e-9)
        flag = " <-- REGRESSION" if delta > args.threshold else ""
        # Per-phase / per-query mean latency: advisory only. Artifacts
        # written before the streaming-session PR carry no mean_unit_ms.
        old_unit = old.get("mean_unit_ms")
        new_unit = new.get("mean_unit_ms")
        unit_cols = f"{'-':>9} {'-':>9} {'-':>8}"
        if old_unit is not None and new_unit is not None and old_unit > 0:
            unit_delta = (new_unit - old_unit) / old_unit
            unit_cols = (f"{old_unit:>9.3f} {new_unit:>9.3f} "
                         f"{unit_delta:>+7.1%}")
            if unit_delta > args.threshold:
                unit_regressions.append((key, old_unit, new_unit, unit_delta))
        print(f"{strategy:>20} {threads:>7} {phases:>6} "
              f"{old['total_ms']:>10.2f} {new['total_ms']:>10.2f} "
              f"{delta:>+7.1%} {unit_cols}{flag}")
        if delta > args.threshold:
            regressions.append((key, old["total_ms"], new["total_ms"], delta))
    for key in sorted(set(old_runs) - set(new_runs), key=str):
        print(f"(config {key} disappeared from the bench matrix)")

    for (strategy, threads, phases), old_ms, new_ms, delta in unit_regressions:
        print(f"::warning::per-phase latency regression (advisory): "
              f"{strategy} threads={threads} phases={phases} mean unit went "
              f"{old_ms:.3f}ms -> {new_ms:.3f}ms ({delta:+.1%}, threshold "
              f"{args.threshold:.0%})")
    server_warnings = 0
    if args.server_old and args.server_new:
        server_warnings = compare_server(args.server_old, args.server_new,
                                         args.threshold)
    vectorized_warnings = 0
    if args.vectorized_old and args.vectorized_new:
        vectorized_warnings = compare_vectorized(
            args.vectorized_old, args.vectorized_new, args.threshold)
    if regressions:
        for (strategy, threads, phases), old_ms, new_ms, delta in regressions:
            print(f"::warning::perf regression: {strategy} threads={threads} "
                  f"phases={phases} went {old_ms:.2f}ms -> {new_ms:.2f}ms "
                  f"({delta:+.1%}, threshold {args.threshold:.0%})")
        return 1
    print(f"perf gate OK: no config regressed more than "
          f"{args.threshold:.0%} in total wall-clock "
          f"({len(new_runs)} configs checked, "
          f"{len(unit_regressions)} advisory unit warnings, "
          f"{server_warnings} advisory server warnings, "
          f"{vectorized_warnings} advisory vectorized warnings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
