"""End-to-end dist-run validation: bitwise identity + wire accounting.

The PR's acceptance bar, as tests:

- a real SPMD job (threads or OS processes over TCP) produces output
  bitwise identical to ``run_serial`` — not merely allclose;
- the measured exchange wire bytes obey the *exact* frame-level
  invariant and stay within 5% of the paper's Eq 6 value-byte
  prediction at the reference configuration (n=32, k=8, flat:2);
- the simulated substrate's allgather ledger equals the Eq 6 prediction
  exactly, triangulating model, simulation and wire.
"""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.core.distributed_runner import DistributedLowCommConvolution
from repro.dist.launcher import (
    default_spectrum,
    dist_run,
    expected_exchange_value_bytes,
    naive_eq6_bytes,
    simulated_crosscheck,
)
from repro.dist.wire import HEADER_BYTES
from repro.dist.worker import DistConfig, build_pipeline, composite_field
from repro.errors import ConfigurationError
from repro.kernels.gaussian import GaussianKernel

SMALL = dict(n=16, k=4, sigma=2.0, policy="flat:2")
#: the calibrated reference point for the 5%-of-Eq-6 acceptance check
#: (smaller grids carry proportionally more framing/metadata overhead)
REFERENCE = dict(n=32, k=8, sigma=2.0, policy="flat:2")


def _serial(config):
    field = composite_field(config.n, config.seed)
    spectrum = default_spectrum(config)
    return field, spectrum, build_pipeline(config, spectrum).run_serial(field)


class TestBitwiseIdentity:
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_local_matches_run_serial(self, ranks):
        config = DistConfig(num_ranks=ranks, transport="local", **SMALL)
        field, spectrum, serial = _serial(config)
        report = dist_run(config, field=field, spectrum=spectrum)
        assert np.array_equal(report.approx, serial.approx)
        assert report.failed_ranks == []
        assert not report.recovered

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_tcp_matches_run_serial(self, ranks):
        config = DistConfig(num_ranks=ranks, transport="tcp", **SMALL)
        field, spectrum, serial = _serial(config)
        report = dist_run(config, field=field, spectrum=spectrum)
        assert np.array_equal(report.approx, serial.approx)
        assert report.failed_ranks == []

    def test_banded_policy_bitwise(self):
        config = DistConfig(
            n=16, k=4, sigma=2.0, policy="banded", num_ranks=2, transport="local"
        )
        field, spectrum, serial = _serial(config)
        report = dist_run(config, field=field, spectrum=spectrum)
        assert np.array_equal(report.approx, serial.approx)

    def test_default_inputs_match_cli_composite(self):
        config = DistConfig(num_ranks=2, transport="local", **SMALL)
        _field, _spectrum, serial = _serial(config)
        # dist_run's defaults must regenerate the same field/spectrum
        report = dist_run(config)
        assert np.array_equal(report.approx, serial.approx)


class TestWireAccounting:
    def test_exact_frame_invariant(self):
        """Every rank sends its blob to P-1 peers; nothing else moves
        under the exchange category."""
        config = DistConfig(num_ranks=4, transport="local", **SMALL)
        report = dist_run(config)
        p = config.num_ranks
        expected = sum(
            (p - 1) * (HEADER_BYTES + r.exchange_payload_bytes)
            for r in report.rank_results.values()
        )
        assert report.exchange_wire_bytes == expected
        assert report.wire_totals["recv.exchange.bytes"] == expected

    def test_reference_config_within_5pct_of_eq6(self):
        config = DistConfig(num_ranks=4, transport="local", **REFERENCE)
        report = dist_run(config)
        assert report.predicted_value_bytes > 0
        # wire = value bytes + bounded framing/metadata overhead
        assert 1.0 <= report.wire_over_model <= 1.05

    def test_single_rank_moves_no_bytes(self):
        config = DistConfig(num_ranks=1, transport="local", **SMALL)
        report = dist_run(config)
        assert report.exchange_wire_bytes == 0
        assert report.predicted_value_bytes == 0
        assert report.wire_over_model == 0.0

    def test_prediction_scales_with_peers(self):
        field = composite_field(16, 0)
        two = DistConfig(num_ranks=2, transport="local", **SMALL)
        four = DistConfig(num_ranks=4, transport="local", **SMALL)
        b2 = expected_exchange_value_bytes(two, field)
        b4 = expected_exchange_value_bytes(four, field)
        assert b4 == 3 * b2  # (P-1) scaling, same sample count

    def test_naive_closed_form_is_reference_only(self):
        config = DistConfig(num_ranks=2, transport="local", **REFERENCE)
        field = composite_field(config.n, config.seed)
        naive = naive_eq6_bytes(config)
        exact = expected_exchange_value_bytes(config, field)
        assert 0 < naive < exact  # closed form undercounts, recorded anyway
        banded = DistConfig(
            n=16, k=4, sigma=2.0, policy="banded", num_ranks=2, transport="local"
        )
        assert naive_eq6_bytes(banded) == 0

    def test_bad_precision_rejected(self):
        config = DistConfig(num_ranks=2, transport="local", **SMALL)
        object.__setattr__(config, "precision", "float16")
        with pytest.raises(ConfigurationError, match="precision"):
            expected_exchange_value_bytes(config, composite_field(16, 0))


class TestSimulatedCrosscheck:
    def test_ledger_equals_eq6_exactly(self):
        config = DistConfig(num_ranks=4, transport="local", **SMALL)
        field = composite_field(config.n, config.seed)
        sim = simulated_crosscheck(config, field=field)
        assert sim["allgather_bytes"] == expected_exchange_value_bytes(
            config, field
        )
        assert sim["allgather_rounds"] == 1

    def test_simulated_result_close_to_real(self):
        config = DistConfig(num_ranks=2, transport="local", **SMALL)
        field, spectrum, serial = _serial(config)
        sim = simulated_crosscheck(config, field=field, spectrum=spectrum)
        # the simulated accumulator sums in rank-grouped order, so only
        # allclose — the real runtime sorts by sub-domain index and is
        # bitwise (TestBitwiseIdentity)
        np.testing.assert_allclose(sim["approx"], serial.approx, atol=1e-12)


class TestDistributedRunnerSelector:
    def _runner(self, spectrum=None):
        if spectrum is None:
            spectrum = GaussianKernel(n=16, sigma=2.0).spectrum()
        return DistributedLowCommConvolution(n=16, k=4, kernel_spectrum=spectrum)

    def test_local_transport_bitwise(self):
        runner = self._runner()
        field = composite_field(16, 0)
        serial = runner.pipeline.run_serial(field)
        report = runner.run(field, num_ranks=2, transport="local")
        assert np.array_equal(report.approx, serial.approx)
        assert report.comm_bytes > 0
        assert len(report.per_rank_compute_s) == 2

    def test_simulated_default_unchanged(self):
        runner = self._runner()
        field = composite_field(16, 0)
        report = runner.run(field, num_ranks=2)
        assert report.alltoall_rounds == 0 or report.comm_bytes > 0

    def test_unknown_transport_rejected(self):
        runner = self._runner()
        with pytest.raises(ConfigurationError, match="transport"):
            runner.run(composite_field(16, 0), num_ranks=2, transport="mpi")

    def test_callable_spectrum_needs_simulated(self):
        runner = self._runner(spectrum=lambda kz, ky: kz)
        with pytest.raises(ConfigurationError, match="dense kernel spectrum"):
            runner.run(composite_field(16, 0), num_ranks=2, transport="local")


class TestConfigValidation:
    def test_defaults_valid(self):
        DistConfig()  # no raise

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(num_ranks=0), "rank"),
            (dict(transport="mpi"), "transport"),
            (dict(precision="float16"), "precision"),
            (dict(fail_stage="sometime"), "fail_stage"),
            (dict(fail_rank=5), "fail_rank"),
        ],
    )
    def test_bad_values_rejected(self, kwargs, match):
        base = dict(n=16, k=4, num_ranks=2)
        base.update(kwargs)
        with pytest.raises(ConfigurationError, match=match):
            DistConfig(**base)


def test_cli_dist_run_exits_zero(capsys):
    code = main(
        [
            "dist-run",
            "--ranks",
            "2",
            "--transport",
            "local",
            "--n",
            "16",
            "--k",
            "4",
            "--policy",
            "flat:2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bitwise identical to run_serial" in out
    assert "True" in out


def test_cli_dist_run_exits_one_on_mismatch(capsys, monkeypatch):
    import repro.dist.launcher as launcher

    real_dist_run = launcher.dist_run

    def perturbed(*args, **kwargs):
        report = real_dist_run(*args, **kwargs)
        report.approx = report.approx.copy()
        report.approx.flat[0] += 1e-12
        return report

    monkeypatch.setattr(launcher, "dist_run", perturbed)
    code = main(
        [
            "dist-run",
            "--ranks",
            "2",
            "--transport",
            "local",
            "--n",
            "16",
            "--k",
            "4",
            "--policy",
            "flat:2",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert re.search(r"bitwise identical to run_serial\s*\|\s*False", out)
