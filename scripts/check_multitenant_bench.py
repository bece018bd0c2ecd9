#!/usr/bin/env python3
"""Validate the capacity, fairness and weighted-share gates in
BENCH_multitenant.json.

Run by the perf-smoke CI leg after `bench_multitenant --json`. Checks:

  1. Every required row is present.
  2. Capacity: tenants are lanes of one shared worker pool, so a lone
     tenant's median BS/s is at least MIN_SOLO_VS_SERVICE of a plain
     BootstrapService driven the same way. A front door that gives a
     tenant a fixed slice of the pool instead reads about 0.25 on a
     4-core host.
  3. Fairness: under the symmetric two-tenant mixed load the
     worst-tenant p99 stays within MAX_P99_RATIO of the best-tenant
     p99. The quantiles are power-of-two log-bucket estimates, so a
     single bucket edge is already a 2x step; the 3x gate only
     catches a front door that systematically starves one tenant.
  4. Weighted shares: with weights 1:3 and both tenants backlogged,
     each tenant's share of the retired bootstraps over its weight
     share lies within SHARE_VS_WEIGHT.
  5. Sanity: densities are in (0, 1] and throughputs are positive.

Exits non-zero with a diagnostic on any failure.
"""

import json
import sys

# Lone-tenant over plain-service median BS/s. Both run the same drive
# loop on the same pool size; the slack absorbs host noise.
MIN_SOLO_VS_SERVICE = 0.75

# Worst-tenant p99 over best-tenant p99 under symmetric load. See the
# module docstring for why this is 3x and not tighter.
MAX_P99_RATIO = 3.0

# Achieved share over weight share: within 20% of the weights.
SHARE_VS_WEIGHT = (0.8, 1.2)

REQUIRED = (
    "baseline_p99",
    "baseline_density",
    "baseline_throughput",
    "service_throughput",
    "solo_vs_service",
    "tenant_a_p99",
    "tenant_b_p99",
    "mixed_density",
    "mixed_throughput",
    "fairness_p99_ratio",
    "light_share_vs_weight",
    "heavy_share_vs_weight",
)


def fail(msg):
    print(f"check_multitenant_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} BENCH_multitenant.json")
    with open(sys.argv[1]) as f:
        report = json.load(f)

    rows = {m["name"]: m["value"] for m in report.get("metrics", [])}
    for name in REQUIRED:
        if name not in rows:
            fail(f"metric {name} missing from report")
    print(f"ok: all {len(REQUIRED)} required metrics present")

    for name in ("baseline_density", "mixed_density"):
        density = rows[name]
        if not 0.0 < density <= 1.0:
            fail(f"{name} = {density} outside (0, 1]")
    print("ok: superbatch densities in (0, 1]")

    for name in ("baseline_throughput", "service_throughput",
                 "mixed_throughput"):
        if rows[name] <= 0:
            fail(f"{name} = {rows[name]} is not positive")

    solo = rows["baseline_throughput"] / rows["service_throughput"]
    if abs(solo - rows["solo_vs_service"]) > 1e-6:
        fail(f"solo_vs_service {rows['solo_vs_service']:.4f} disagrees "
             f"with recomputed {solo:.4f}")
    print(f"ok: lone tenant at {solo:.2f}x a plain service")
    if solo < MIN_SOLO_VS_SERVICE:
        fail(f"a lone tenant reaches {solo:.2f}x a plain service's BS/s "
             f"(< {MIN_SOLO_VS_SERVICE}x): the front door is not "
             "letting one tenant use the whole pool")

    worst = max(rows["tenant_a_p99"], rows["tenant_b_p99"])
    best = max(1.0, min(rows["tenant_a_p99"], rows["tenant_b_p99"]))
    ratio = worst / best
    print(f"ok: mixed-load p99 worst/best = {ratio:.2f}x")
    if abs(ratio - rows["fairness_p99_ratio"]) > 1e-6:
        fail(f"fairness_p99_ratio {rows['fairness_p99_ratio']:.4f} "
             f"disagrees with recomputed {ratio:.4f}")
    if ratio > MAX_P99_RATIO:
        fail(f"worst-tenant p99 is {ratio:.2f}x the best tenant's "
             f"(> {MAX_P99_RATIO}x): the front door is starving a "
             "tenant under symmetric load")

    low, high = SHARE_VS_WEIGHT
    for name in ("light_share_vs_weight", "heavy_share_vs_weight"):
        share = rows[name]
        if not low <= share <= high:
            fail(f"{name} = {share:.3f} outside [{low}, {high}]: "
                 "backlogged tenants are not served by weight")
    print("ok: weighted shares within "
          f"[{low}, {high}] of the weight shares")


if __name__ == "__main__":
    main()
