"""Tests for trace-driven firing-fraction calibration (repro.nn.calibration)."""

from __future__ import annotations

import pytest

from repro.models import available_networks, build_network
from repro.nn import (
    estimate_firing_fractions,
    fit_firing_fractions,
    propagate_occupancy_graph,
)
from repro.runtime.sim import InferenceDone
from repro.runtime.tracer import KernelTrace

DENSITIES = (0.02, 0.05, 0.11, 0.3)


def _compute_preds(graph, name):
    return [p for p in graph.predecessors(name) if graph.layer(p).kind.is_compute]


def _synthetic_profiles(graph, densities=DENSITIES):
    return [propagate_occupancy_graph(graph, d) for d in densities]


class TestEstimateFiringFractions:
    @pytest.mark.parametrize("name", available_networks())
    def test_recovers_planted_fractions(self, name):
        # Acceptance criterion: profiles generated by the propagation model
        # itself must fit back to the planted per-layer fractions within
        # 1e-6 (the observations are exactly linear in each fraction).
        net = build_network(name, 64, 64)
        result = estimate_firing_fractions(_synthetic_profiles(net), net)
        assert result.num_profiles == len(DENSITIES)
        assert result.residual == pytest.approx(0.0, abs=1e-12)
        for layer_name in net.layer_names():
            if not _compute_preds(net, layer_name):
                continue  # sources carry the measured input: nothing fitted
            planted = 1.0 - net.layer(layer_name).activation_sparsity
            assert result.fractions[layer_name] == pytest.approx(planted, abs=1e-6)
            assert result.observations[layer_name] == len(DENSITIES)

    def test_recovers_fractions_planted_off_config(self):
        # Support reconstruction uses only the graph *structure* (dilation
        # and join weights carry no free parameters), so profiles generated
        # under different sparsities than the config's still fit exactly.
        net = build_network("spikeflownet", 64, 64)
        planted = {
            n: 0.05 + 0.9 * (i % 7) / 7.0
            for i, n in enumerate(net.layer_names())
            if _compute_preds(net, n)
        }
        truth = net.with_firing_fractions(planted)
        result = estimate_firing_fractions(_synthetic_profiles(truth), net)
        for layer_name, fraction in planted.items():
            assert result.fractions[layer_name] == pytest.approx(fraction, abs=1e-6)

    def test_flat_profiles_carry_no_signal(self):
        net = build_network("spikeflownet", 64, 64)
        flat = (0.1,) + (None,) * (net.num_layers - 1)
        result = estimate_firing_fractions([flat], net)
        assert result.num_profiles == 0
        assert not result.fractions

    def test_length_mismatch_skipped(self):
        net = build_network("spikeflownet", 64, 64)
        other = build_network("dotie", 64, 64)
        good = propagate_occupancy_graph(net, 0.1)
        bad = propagate_occupancy_graph(other, 0.1)
        result = estimate_firing_fractions([good, bad], net)
        assert result.num_profiles == 1

    def test_fractions_clamped_into_valid_range(self):
        # Observations denser than any support can explain must still
        # produce a writable fraction (<= 1).
        net = build_network("dotie", 64, 64)
        g = net.copy()
        # dotie is single-layer: extend with a second layer to have a fit.
        from repro.nn import LayerKind, LayerSpec

        g.add_layer(
            LayerSpec(
                name="head",
                kind=LayerKind.CONV2D,
                in_channels=4,
                out_channels=4,
                in_height=64,
                in_width=64,
                kernel_size=3,
                activation_sparsity=0.3,
            ),
            ["spike_filter"],
        )
        result = estimate_firing_fractions([(0.05, 1.0), (0.1, 1.0)], g)
        assert result.fractions["head"] <= 1.0


class TestFitFiringFractions:
    def test_fits_from_kernel_trace(self):
        net = build_network("adaptive_spikenet", 64, 64)
        planted = {
            n: 0.2 + 0.05 * i
            for i, n in enumerate(net.layer_names())
            if _compute_preds(net, n)
        }
        truth = net.with_firing_fractions(planted)
        trace = KernelTrace()
        for i, profile in enumerate(_synthetic_profiles(truth)):
            trace.record(
                InferenceDone(time=0.001 * i, stream="s0", profile=profile)
            )
        # Wake-up events (no profile) must not disturb the fit.
        trace.record(InferenceDone(time=0.01, stream="server"))
        calibrated = fit_firing_fractions(trace, net)
        for layer_name, fraction in planted.items():
            assert calibrated.layer(layer_name).activation_sparsity == pytest.approx(
                1.0 - fraction, abs=1e-6
            )
        # Round trip: the calibrated graph reproduces the observed profiles.
        for density, profile in zip(DENSITIES, _synthetic_profiles(truth)):
            refit = propagate_occupancy_graph(calibrated, density)
            assert refit == pytest.approx(profile, abs=1e-6)

    def test_accepts_plain_profile_iterables(self):
        net = build_network("spikeflownet", 64, 64)
        calibrated = fit_firing_fractions(_synthetic_profiles(net), net)
        for n in net.layer_names():
            assert calibrated.layer(n).activation_sparsity == pytest.approx(
                net.layer(n).activation_sparsity, abs=1e-6
            )

    def test_empty_trace_returns_unchanged_copy(self):
        net = build_network("halsie", 64, 64)
        calibrated = fit_firing_fractions([], net)
        assert calibrated is not net
        for n in net.layer_names():
            assert calibrated.layer(n).activation_sparsity == net.layer(
                n
            ).activation_sparsity
