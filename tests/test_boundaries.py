"""Every public function and checked dataclass of numerics, transceiver,
metrics, channel, theory and simulator refuses bad input with a
ContractViolation that names it.

A row names a public name, one of its parameters, a bad value, a call that
passes it, and the text the error names the parameter by (the message
starts with it); a name and parameter have one row at most. A public name
with no row fails ``test_every_public_name_has_a_row``, so a new name cannot
skip the rule. Exceptions and the result records that the library builds
itself take no input and have no row.

``SHAPE_ROWS`` holds a wrong-shape row for each public callable that takes
an array of a fixed shape, with the whole error it must raise: ``{name} must
have shape {expected}, got {the caller's own shape}``. The public names
with no shape row are listed in ``NO_SHAPE_ROW``.
"""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from relaylab import channel, metrics, numerics, simulator, theory, transceiver
from relaylab.channel import SystemConfig, sample_realization
from relaylab.numerics import ContractViolation, SeedSpec

CONFIG = SystemConfig(n_s=2, n_r=2, n_d=2, rho=10.0, rate_bpcu=1.0)
CHAN = sample_realization(CONFIG, SeedSpec(5, 0))
OTHER = sample_realization(SystemConfig(n_s=3, n_r=2, n_d=4), SeedSpec(5, 0))  # hops of another shape
DESIGN = transceiver.build_design(CONFIG, CHAN)
RESULT_RECORDS = {
    numerics.HermitianEig, transceiver.TransceiverDesign, transceiver.ErrorCovariance, metrics.MiReport,
    theory.DiversityPrediction, simulator.OutagePoint, simulator.OutageCurve, simulator.SlopeFit,
}
MODULES = (numerics, transceiver, metrics, channel, theory, simulator)


def _with(array, value):
    """A copy of ``array`` whose first entry is ``value``."""
    out = np.array(array, dtype=complex if np.iscomplexobj(array) else float)
    out.flat[0] = value
    return out


ROWS = [
    # (module, public name, parameter, bad value, call with the bad value, the name in the error)
    (numerics, "SeedSpec", "master_seed", -1, lambda v: SeedSpec(v), "master_seed"),
    (numerics, "eig_hermitian_desc", "a", math.nan, lambda v: numerics.eig_hermitian_desc(_with(np.eye(2), v)),
     "eig input"),
    (numerics, "gram_eigvals_desc", "mats", math.inf,
     lambda v: numerics.gram_eigvals_desc(_with(CHAN.h, v)[None], 2), "mats"),
    (numerics, "solve_hermitian_psd", "b", math.nan,
     lambda v: numerics.solve_hermitian_psd(np.eye(2), _with(np.ones(2), v)), "solve rhs"),
    (numerics, "sample_complex_gaussian_batch", "stream_indices", -1,
     lambda v: numerics.sample_complex_gaussian_batch(2, 2, 0, np.array([v])), "stream_indices"),
    (transceiver, "relay_receiver", "rho", -1.0, lambda v: transceiver.relay_receiver(CHAN.h, v), "rho"),
    (transceiver, "signal_covariance", "rho", 0.0, lambda v: transceiver.signal_covariance(CHAN.h, v), "rho"),
    (transceiver, "ry_identity_gap", "rho", math.nan, lambda v: transceiver.ry_identity_gap(CHAN.h, v), "rho"),
    (transceiver, "waterfill_phi", "lambda_y", math.nan,
     lambda v: transceiver.waterfill_phi(np.array([v, 1.0]), np.ones(2), 1.0), "lambda_y"),
    (transceiver, "waterfill_phi_batch", "lambda_g", -1.0,
     lambda v: transceiver.waterfill_phi_batch(np.ones((1, 2)), np.array([[1.0, v]]), 1.0), "lambda_g"),
    (transceiver, "build_design", "chan", OTHER, lambda v: transceiver.build_design(CONFIG, v), "chan.h"),
    (transceiver, "destination_receiver", "rho", -5.0,
     lambda v: transceiver.destination_receiver(CHAN.h, CHAN.g, DESIGN.q, v), "rho"),
    (transceiver, "destination_receiver_second_hop", "r_y", math.nan,
     lambda v: transceiver.destination_receiver_second_hop(_with(DESIGN.r_y, v), DESIGN.b, CHAN.g), "r_y"),
    (transceiver, "error_cov_decomposed", "relay_precoder", math.nan,
     lambda v: transceiver.error_cov_decomposed(CONFIG, CHAN, DESIGN, relay_precoder=_with(DESIGN.b, v)),
     "relay_precoder"),
    (transceiver, "error_cov_direct", "q", math.inf,
     lambda v: transceiver.error_cov_direct(CONFIG, CHAN, _with(DESIGN.q, v)), "q"),
    (transceiver, "optimal_gamma_batch", "h", math.nan,
     lambda v: transceiver.optimal_gamma_batch(CONFIG, _with(CHAN.h, v)[None], CHAN.g[None]), "channel stack h"),
    (transceiver, "relay_power", "rho", math.nan, lambda v: transceiver.relay_power(CHAN.h, DESIGN.q, v), "rho"),
    (metrics, "mutual_info_joint", "gamma", math.inf, lambda v: metrics.mutual_info_joint(np.array([v, 1.0])),
     "gamma"),
    (metrics, "mi_lower_bound", "n_s", 0, lambda v: metrics.mi_lower_bound(np.ones(2), np.ones(2), 10.0, v), "n_s"),
    (metrics, "bound_statistic", "rho", 0.0, lambda v: metrics.bound_statistic(np.ones(2), np.ones(2), v), "rho"),
    (metrics, "outage_bound_statistic", "lambda_h", -1.0,
     lambda v: metrics.outage_bound_statistic(np.array([1.0, v]), np.ones(2), 10.0, 2, 1.0), "lambda_h"),
    (metrics, "outage_threshold", "rate_bpcu", math.nan, lambda v: metrics.outage_threshold(2, 2, v), "rate_bpcu"),
    (metrics, "outage_separate", "gamma", math.inf,
     lambda v: metrics.outage_separate(np.array([1.0, v]), 1.0, 2), "gamma"),
    (metrics, "channel_eigenvalues", "chan", OTHER, lambda v: metrics.channel_eigenvalues(CONFIG, v), "chan.h"),
    (metrics, "evaluate_realization", "chan", OTHER, lambda v: metrics.evaluate_realization(CONFIG, v),
     "chan.h"),
    (channel, "SystemConfig", "n_d", 0, lambda v: SystemConfig(n_s=2, n_r=2, n_d=v), "n_d"),
    (channel, "ChannelRealization", "g", math.nan, lambda v: channel.ChannelRealization(CHAN.h, _with(CHAN.g, v)),
     "hop g"),
    (channel, "sample_realization", "seed", SimpleNamespace(master_seed=-1, stream_index=0),
     lambda v: channel.sample_realization(CONFIG, v), "master_seed"),
    (channel, "sample_realization_batch", "stream_indices", -1,
     lambda v: channel.sample_realization_batch(CONFIG, 0, np.array([v])), "stream_indices"),
    (channel, "config_at_snr", "snr_db", math.inf, lambda v: channel.config_at_snr(CONFIG, v), "snr_db"),
    (channel, "config_at_snr", "config.p_r", 0.001,
     lambda v: channel.config_at_snr(replace(CONFIG, p_r=v), 10.0), "config.p_r"),
    # a rho whose default budget rho * n_s overflows: the error names config.p_r, not the unset p_r
    (channel, "config_at_snr", "config.rho", 1e308,
     lambda v: channel.config_at_snr(replace(CONFIG, rho=v, p_r=1.0), 10.0), "config.p_r"),
    (theory, "m_bar", "rate_bpcu", -1.0, lambda v: theory.m_bar(2, 2, v), "rate_bpcu"),
    (theory, "outage_threshold", "m_dim", 0, lambda v: theory.outage_threshold(2, v, 1.0), "m_dim"),
    (theory, "drt", "n_d", 0, lambda v: theory.drt(2, 2, v, 1.0), "n_d"),
    (theory, "dmt", "r_mult", math.nan, lambda v: theory.dmt(2, 2, 2, v), "r_mult"),
    (theory, "classify_regime", "n_s", 1.5, lambda v: theory.classify_regime(v, 1.0), "n_s"),
    (theory, "predict", "rate_bpcu", math.inf, lambda v: theory.predict(2, 2, 2, v), "rate_bpcu"),
    (simulator, "SweepSpec", "trials_per_point", 10,
     lambda v: simulator.SweepSpec(CONFIG, (0.0, 10.0), v), "trials_per_point"),
    (simulator, "SweepSpec", "config.p_r", 0.001,
     lambda v: simulator.SweepSpec(replace(CONFIG, p_r=v), (10.0, 20.0), 2048), "config.p_r"),
    (simulator, "SweepSpec", "config.rho", 1e308,
     lambda v: simulator.SweepSpec(replace(CONFIG, rho=v, p_r=1.0), (10.0, 20.0), 2048), "config.p_r"),
    (simulator, "wilson_interval", "trials", 0, lambda v: simulator.wilson_interval(0, v), "trials"),
    (simulator, "run_point", "workers", 0,
     lambda v: simulator.run_point(CONFIG, 10.0, 100, "bound", 0, workers=v), "workers"),
    (simulator, "run_point", "config.p_r", 0.001,
     lambda v: simulator.run_point(replace(CONFIG, p_r=v), 10.0, 100, "bound", 0), "config.p_r"),
    (simulator, "run_sweep", "workers", True,
     lambda v: simulator.run_sweep(simulator.SweepSpec(CONFIG, (0.0,), 100), workers=v), "workers"),
    (simulator, "fit_slope", "min_count", 0,
     lambda v: simulator.fit_slope(simulator.OutageCurve((), "bound", CONFIG), min_count=v), "min_count"),
]


WRONG_G = channel.ChannelRealization(CHAN.h, np.ones((3, 2), dtype=complex))  # a valid draw for n_d = 3

SHAPE_ROWS = [
    # (module, public name, parameter, wrong-shape value, call with it, the error)
    (numerics, "eig_hermitian_desc", "a", np.ones((2, 3)), lambda v: numerics.eig_hermitian_desc(v),
     "eig input must have shape (2, 2), got (2, 3)"),
    (numerics, "gram_eigvals_desc", "mats", CHAN.h, lambda v: numerics.gram_eigvals_desc(v, 2),
     "mats must have shape (*, *, *), got (2, 2)"),
    (numerics, "solve_hermitian_psd", "b", np.ones(3), lambda v: numerics.solve_hermitian_psd(np.eye(2), v),
     "solve rhs must have shape (2,), got (3,)"),
    (numerics, "sample_complex_gaussian_batch", "stream_indices", np.zeros((2, 1), dtype=np.uint64),
     lambda v: numerics.sample_complex_gaussian_batch(2, 2, 0, v), "stream_indices must have shape (*,), got (2, 1)"),
    (transceiver, "relay_receiver", "h", np.ones(2), lambda v: transceiver.relay_receiver(v, 10.0),
     "h must have shape (*, *), got (2,)"),
    (transceiver, "signal_covariance", "h", np.ones(2), lambda v: transceiver.signal_covariance(v, 10.0),
     "h must have shape (*, *), got (2,)"),
    (transceiver, "ry_identity_gap", "h", np.ones(2), lambda v: transceiver.ry_identity_gap(v, 10.0),
     "h must have shape (*, *), got (2,)"),
    (transceiver, "waterfill_phi", "lambda_g", np.ones(3), lambda v: transceiver.waterfill_phi(np.ones(2), v, 1.0),
     "lambda_g must have shape (2,), got (3,)"),  # the one-draw view names no batch axis
    (transceiver, "waterfill_phi_batch", "lambda_y", np.ones(2),
     lambda v: transceiver.waterfill_phi_batch(v, np.ones(2), 1.0), "lambda_y must have shape (*, *), got (2,)"),
    (transceiver, "build_design", "chan", WRONG_G, lambda v: transceiver.build_design(CONFIG, v),
     "chan.g must have shape (2, 2), got (3, 2)"),
    (transceiver, "destination_receiver", "g", np.ones(2),
     lambda v: transceiver.destination_receiver(CHAN.h, v, DESIGN.q, 10.0), "g must have shape (*, 2), got (2,)"),
    (transceiver, "destination_receiver_second_hop", "b", np.ones(2),
     lambda v: transceiver.destination_receiver_second_hop(DESIGN.r_y, v, CHAN.g),
     "b must have shape (2, *), got (2,)"),
    (transceiver, "error_cov_decomposed", "relay_precoder", DESIGN.b[:, :1],
     lambda v: transceiver.error_cov_decomposed(CONFIG, CHAN, DESIGN, relay_precoder=v),
     "relay_precoder must have shape (2, 2), got (2, 1)"),
    (transceiver, "error_cov_direct", "q", np.ones(2), lambda v: transceiver.error_cov_direct(CONFIG, CHAN, v),
     "q must have shape (2, 2), got (2,)"),
    (transceiver, "optimal_gamma_batch", "g", CHAN.g[None],
     lambda v: transceiver.optimal_gamma_batch(CONFIG, np.stack([CHAN.h, CHAN.h]), v),
     "channel stack g must have shape (2, 2, 2), got (1, 2, 2)"),
    (transceiver, "relay_power", "h", np.ones(2), lambda v: transceiver.relay_power(v, np.ones((2, 2)), 10.0),
     "h must have shape (*, *), got (2,)"),
    (metrics, "mi_lower_bound", "lambda_h", np.ones(3), lambda v: metrics.mi_lower_bound(v, np.ones(2), 10.0, 2),
     "lambda_h must have shape (2,), got (3,)"),
    (metrics, "mi_lower_bound", "lambda_g", 1.0, lambda v: metrics.mi_lower_bound(np.ones(2), v, 10.0, 2),
     "lambda_g must have shape (*,), got ()"),
    (metrics, "bound_statistic", "lambda_g", np.ones(3), lambda v: metrics.bound_statistic(np.ones(2), v, 10.0),
     "lambda_g must have shape (2,), got (3,)"),
    (metrics, "outage_bound_statistic", "lambda_g", np.ones(3),
     lambda v: metrics.outage_bound_statistic(np.ones(2), v, 10.0, 2, 1.0), "lambda_g must have shape (2,), got (3,)"),
    (metrics, "outage_bound_statistic", "lambda_h", 1.0,
     lambda v: metrics.outage_bound_statistic(v, 1.0, 10.0, 2, 1.0), "lambda_h must have shape (*,), got ()"),
    (metrics, "channel_eigenvalues", "chan", WRONG_G, lambda v: metrics.channel_eigenvalues(CONFIG, v),
     "chan.g must have shape (2, 2), got (3, 2)"),
    (metrics, "evaluate_realization", "chan", WRONG_G, lambda v: metrics.evaluate_realization(CONFIG, v),
     "chan.g must have shape (2, 2), got (3, 2)"),
    (channel, "ChannelRealization", "g", np.ones((2, 3)), lambda v: channel.ChannelRealization(CHAN.h, v),
     "hop g must have shape (*, 2), got (2, 3)"),
    (channel, "sample_realization_batch", "stream_indices", np.zeros((2, 1), dtype=np.uint64),
     lambda v: channel.sample_realization_batch(CONFIG, 0, v), "stream_indices must have shape (*,), got (2, 1)"),
]

# Public names with no shape row: they take no array, or their arrays take any shape.
NO_SHAPE_ROW = {
    "numerics.SeedSpec", "metrics.mutual_info_joint", "metrics.outage_threshold", "metrics.outage_separate",
    "channel.SystemConfig", "channel.sample_realization", "channel.config_at_snr", "theory.m_bar",
    "theory.outage_threshold", "theory.drt", "theory.dmt", "theory.classify_regime", "theory.predict",
    "simulator.SweepSpec", "simulator.wilson_interval", "simulator.run_point", "simulator.run_sweep",
    "simulator.fit_slope",
}


def _qualified(module, name):
    return f"{module.__name__.rsplit('.', 1)[-1]}.{name}"


def _public_names():
    return {
        _qualified(module, name)
        for module in MODULES
        for name, obj in ((name, getattr(module, name)) for name in module.__all__)
        if callable(obj) and obj not in RESULT_RECORDS and not (isinstance(obj, type) and issubclass(obj, Exception))
    }


@pytest.mark.parametrize(
    "bad,call,named",
    [row[3:] for row in ROWS],
    ids=[f"{_qualified(module, name)}-{param}-{'other-shape' if isinstance(bad, channel.ChannelRealization) else bad}"
         for module, name, param, bad, *_ in ROWS],
)
def test_rejects_by_name(bad, call, named):
    with pytest.raises(ContractViolation, match=f"^{named} "):
        call(bad)


def test_every_public_name_has_a_row():
    rows = [(_qualified(module, name), param) for module, name, param, *_ in ROWS]
    assert len(rows) == len(set(rows)), "one row per public name and parameter"
    assert {name for name, _ in rows} == _public_names()
    assert {module for module, *_ in ROWS} == set(MODULES)


@pytest.mark.parametrize(
    "bad,call,error",
    [row[3:] for row in SHAPE_ROWS],
    ids=[f"{_qualified(module, name)}-{param}" for module, name, param, *_ in SHAPE_ROWS],
)
def test_rejects_wrong_shape_by_name(bad, call, error):
    with pytest.raises(ContractViolation, match=f"^{re.escape(error)}$"):
        call(bad)


def test_every_array_taking_name_has_a_shape_row():
    rows = [(_qualified(module, name), param) for module, name, param, *_ in SHAPE_ROWS]
    assert len(rows) == len(set(rows)), "one shape row per public name and parameter"
    names = {name for name, _ in rows}
    assert names.isdisjoint(NO_SHAPE_ROW)
    assert names | NO_SHAPE_ROW == _public_names()
