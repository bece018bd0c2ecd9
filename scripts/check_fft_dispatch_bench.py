#!/usr/bin/env python3
"""Validate the batched-FFT dispatch rows of BENCH_cpu_primitives.json.

Run by the perf-smoke CI leg after `bench_cpu_primitives --json` with a
filter covering the dispatch families. Checks:

  1. BM_BatchFftForward, BM_BatchFftInverse, BM_DispatchBootstrap,
     BM_ChunkBlindRotate, BM_LaneTileCmux and BM_KeySwitch entries
     exist, including the scalar tier (always registered).
  2. When a vector tier ran on this host, the widest tier beats scalar
     by a generous margin on the batched forward FFT at N=1024 and on
     the set-I key switch, and every vector tier beats scalar on the
     16-LWE chunk rotation (each tier has its own lane-tile kernel, so
     a narrower tier can break on its own).
     The real speedups are ~2x (FFT), ~3.5x to ~4.5x (rotation) and ~4x
     (key switch) on AVX-512 hardware; the 1.15x gate only catches a
     dispatch path that silently routes wide batches through the scalar
     kernels, or a kernel translation unit whose integer loops stopped
     vectorizing (shared CI runners are too noisy for a tight
     threshold).

Exits non-zero with a diagnostic on any failure.
"""

import json
import sys

# Tier lane widths, used to pick the widest tier that produced rows.
WIDTH = {"scalar": 1, "neon": 2, "avx2": 4, "avx512": 8}

# Below this ratio the widest tier is indistinguishable from scalar and
# the wide-kernel path is assumed broken. Generous on purpose: see the
# module docstring.
MIN_SPEEDUP = 1.15


def fail(msg):
    print(f"check_fft_dispatch_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_speedup(rows, scalar_name, wide_name, what):
    scalar = rows.get(scalar_name)
    wide = rows.get(wide_name)
    if scalar is None or wide is None:
        fail(f"missing {scalar_name} / {wide_name} rows")
    speedup = scalar["real_time"] / wide["real_time"]
    print(f"ok: {what}: {speedup:.2f}x")
    if speedup < MIN_SPEEDUP:
        fail(f"{what} is only {speedup:.2f}x "
             f"(< {MIN_SPEEDUP}x): wide-kernel dispatch looks broken")


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_cpu_primitives.json")
    with open(sys.argv[1]) as f:
        report = json.load(f)

    rows = {b["name"]: b for b in report.get("benchmarks", [])}

    for family in ("BM_BatchFftForward", "BM_BatchFftInverse",
                   "BM_DispatchBootstrap", "BM_ChunkBlindRotate",
                   "BM_LaneTileCmux", "BM_KeySwitch"):
        names = [n for n in rows if n.startswith(family + "/")]
        if not names:
            fail(f"no {family} entries in report")
        if not any("/scalar" in n for n in names):
            fail(f"{family} has no scalar-tier row")
        print(f"ok: {family}: {len(names)} rows")

    tiers = sorted(
        {n.split("/")[1] for n in rows if n.startswith("BM_BatchFftForward/")},
        key=lambda t: WIDTH.get(t, 0),
    )
    widest = tiers[-1]
    if WIDTH.get(widest, 0) <= 1:
        print("ok: only the scalar tier is supported here; "
              "skipping the speedup gates")
    else:
        check_speedup(rows, "BM_BatchFftForward/scalar/1024",
                      f"BM_BatchFftForward/{widest}/1024",
                      f"forward FFT N=1024 {widest} vs scalar")
        for tier in tiers:
            if WIDTH.get(tier, 0) > 1:
                check_speedup(rows, "BM_ChunkBlindRotate/scalar",
                              f"BM_ChunkBlindRotate/{tier}",
                              f"16-LWE chunk blind rotation {tier} "
                              "vs scalar")
        check_speedup(rows, "BM_KeySwitch/scalar",
                      f"BM_KeySwitch/{widest}",
                      f"set-I key switch {widest} vs scalar")

    dispatch = report.get("context", {}).get("fft_dispatch")
    if not dispatch:
        fail("context.fft_dispatch missing from report")
    print(f"ok: context.fft_dispatch = {dispatch}")


if __name__ == "__main__":
    main()
