"""Sensitivity self-test: a known delay in one layer shows up where it should.

Usage: ``python3 perfbench/selftest.py`` (about two minutes; exit code 0 when
every check passes).

Each check adds a busy-wait to one layer entry point from outside the
program (``worker.py --inject``) and compares fresh-process runs with and
without it:

* +20 us per ``DynamicSparseFrameAggregator.push_index`` on
  ``hotspot_dsfa``: ``dsfa.self_s`` rises by about pushes x 20 us, the other
  layers do not absorb it, and ``frames_per_s`` falls.
* The same delay on ``fleet_e2sf``, which makes no ``push_index`` call:
  ``dsfa`` stays at zero and ``frames_per_s`` does not move beyond noise.
* +10 us per ``StreamClient._on_frame`` on ``fleet_e2sf``: ``client.self_s``
  rises by about frames x 10 us, the other layers do not absorb it, and
  ``frames_per_s`` falls.

It then checks one traced run of every workload against the layer
predictions the workloads were chosen for: self times plus
``trace.unattributed_s`` add up to ``trace.wall_s`` with at most 10%
unattributed, DSFA, NMP and shard layers are idle where they are bypassed,
and the layers each workload stresses take the largest share.
"""

from __future__ import annotations

import statistics
import sys

import checkout
from run import run_worker

# The measured self-time rise must be within this share of calls x delay.
TOLERANCE = 0.3
# Noise allowance for "does not move" on frames_per_s.
STEADY = 0.15
SHARD_TIMES = ("shard.partition_s", "shard.spawn_s", "shard.wait_s", "shard.merge_s")
# The layer group each workload stresses: its summed self time must exceed
# the self time of every other layer.
DOMINANT = {
    "fleet_e2sf": ("kernel", "client"),
    "hotspot_dsfa": ("dsfa", "stack", "cost", "executor"),
    "churn_remap": ("nmp",),
}


def paired_runs(workload: str, inject: str, traced: bool, count: int):
    """``count`` runs without and ``count`` with the delay, alternating so
    that slow host drift falls on both sides alike."""
    import workloads

    base, slow = [], []
    for _ in range(count):
        base.append(run_worker(workload, workloads.DEFAULT_SEED, traced))
        slow.append(run_worker(workload, workloads.DEFAULT_SEED, traced, inject))
    return base, slow


def median(results: list, key: str, layer: bool = False) -> float:
    return statistics.median(r["layers"][key] if layer else r[key] for r in results)


class Checks:
    def __init__(self) -> None:
        self.failures = 0

    def expect(self, ok: bool, message: str) -> None:
        print(("PASS " if ok else "FAIL ") + message)
        if not ok:
            self.failures += 1

    def layer_delay(self, workload: str, layer: str, inject: str, calls_key: str, delay_s: float):
        """Traced and untraced runs with and without the delay."""
        base_traced, slow_traced = paired_runs(workload, inject, True, 2)
        base, slow = paired_runs(workload, inject, False, 3)
        calls = base_traced[0]["layers"][calls_key] if calls_key else base_traced[0]["frames"]
        expected = calls * delay_s
        key = f"{layer}.self_s"
        rise = median(slow_traced, key, True) - median(base_traced, key, True)
        self.expect(
            abs(rise - expected) <= TOLERANCE * expected,
            f"{workload}: {key} rose {rise:.3f} s for {calls:.0f} calls x "
            f"{delay_s * 1e6:.0f} us = {expected:.3f} s",
        )
        for other in ("kernel", "client", "dsfa", "stack", "executor", "cost", "report"):
            if other == layer:
                continue
            other_key = f"{other}.self_s"
            moved = median(slow_traced, other_key, True) - median(base_traced, other_key, True)
            self.expect(
                moved <= TOLERANCE * expected,
                f"{workload}: {other_key} moved {moved:+.3f} s (limit {TOLERANCE * expected:.3f} s)",
            )
        fps_base = median(base, "frames_per_s")
        fps_slow = median(slow, "frames_per_s")
        self.expect(
            fps_slow < (1.0 - STEADY) * fps_base,
            f"{workload}: frames_per_s fell from {fps_base:.0f} to {fps_slow:.0f}",
        )

    def layer_predictions(self, workload: str, layers: dict) -> None:
        """One traced run against the layer predictions of its workload."""
        from layers import LAYERS

        self_times = [name for name in LAYERS if name != "gc" and not name.startswith("shard.")]
        wall = layers["trace.wall_s"]
        unattributed = layers["trace.unattributed_s"]
        parent = [f"{name}.self_s" for name in self_times] + ["gc.pause_s"]
        if workload == "fleet_sharded":
            # Worker layers run inside shard.wait_s; only the parent's
            # set-up layers are part of its wall time.
            parent = ["compile.self_s", "events.self_s", "render.self_s", "gc.pause_s"]
        parent += list(SHARD_TIMES)
        if workload != "fleet_sharded":
            self.expect(
                abs(sum(layers[key] for key in parent) + unattributed - wall) <= 1e-3 * wall,
                f"{workload}: self times + unattributed = wall time {wall:.3f} s",
            )
        self.expect(
            0 <= unattributed <= 0.1 * wall,
            f"{workload}: unattributed {unattributed:.3f} s of {wall:.3f} s",
        )
        if workload == "fleet_e2sf":
            self.expect(layers["dsfa.pushes"] == 0, f"{workload}: no DSFA pushes")
        if workload != "churn_remap":
            self.expect(layers["nmp.remaps"] == 0, f"{workload}: no NMP remaps")
        if workload != "fleet_sharded":
            self.expect(
                all(layers[key] == 0 for key in SHARD_TIMES), f"{workload}: shard layers idle"
            )
        group = DOMINANT.get(workload)
        if group:
            share = sum(layers[f"{name}.self_s"] for name in group)
            rival = max(
                (layers[f"{name}.self_s"], name) for name in self_times if name not in group
            )
            self.expect(
                share > rival[0],
                f"{workload}: {'+'.join(group)} {share:.3f} s exceeds every other "
                f"layer (largest: {rival[1]} {rival[0]:.3f} s)",
            )


def main() -> int:
    try:
        checkout.import_repro()
    except checkout.CheckoutError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    import workloads

    checks = Checks()
    checks.layer_delay("hotspot_dsfa", "dsfa", "dsfa:20", "dsfa.pushes", 20e-6)
    checks.layer_delay("fleet_e2sf", "client", "client:10", None, 10e-6)

    bypass_traced = run_worker("fleet_e2sf", workloads.DEFAULT_SEED, True, "dsfa:20")["layers"]
    checks.expect(
        bypass_traced["dsfa.pushes"] == 0 and bypass_traced["dsfa.self_s"] == 0,
        f"fleet_e2sf: dsfa:20 delay never runs (pushes={bypass_traced['dsfa.pushes']:.0f}, "
        f"dsfa.self_s={bypass_traced['dsfa.self_s']:.4f})",
    )
    base, bypass = paired_runs("fleet_e2sf", "dsfa:20", False, 3)
    fps_base = median(base, "frames_per_s")
    fps_bypass = median(bypass, "frames_per_s")
    checks.expect(
        abs(fps_bypass / fps_base - 1.0) <= STEADY,
        f"fleet_e2sf: frames_per_s {fps_base:.0f} -> {fps_bypass:.0f} with the dsfa delay",
    )
    for workload in workloads.SPECS:
        checks.layer_predictions(
            workload, run_worker(workload, workloads.DEFAULT_SEED, True)["layers"]
        )
    print(f"{checks.failures} check(s) failed" if checks.failures else "all checks passed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
