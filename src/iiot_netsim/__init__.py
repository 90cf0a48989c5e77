"""Deterministic discrete-event simulator of an industrial IoT sensor network.

N sensor nodes push QoS-governed MQTT-style traffic through a fading
wireless channel to one central server; the package reproduces the
latency, throughput and loss analyses that setup supports, plus the
side models (channel statistics, handshake reliability, Erlang C,
multi-hop RTT) used to validate it.
"""

__version__ = "0.1.0"

from .channel_models import (
    AwgnParams,
    RayleighParams,
    RicianParams,
    channel_gain,
    rayleigh_cdf,
    rayleigh_pdf,
    rician_pdf,
    sample_awgn_batch,
    sample_rayleigh_gain_batch,
    sample_rician_gain_batch,
)
from .errors import (
    DomainError,
    InstabilityError,
    InvalidConfigError,
    InvalidParameterError,
    ShapeMismatchError,
    StatisticalCheckError,
    UnreachableTargetError,
)
from .qos_state_machine import (
    QoSChainParams,
    handshake_legs,
    handshake_rows,
    reliability,
    reliability_monte_carlo,
)
from .queueing_model import (
    QueueParams,
    erlang_c_probability,
    mean_wait_in_queue,
    simulate_mmc,
)
from .reporting import (
    IntervalReport,
    RttSummary,
    fading_comparison_table,
    intervals_to_csv,
    parse_intervals_csv,
    rtt_summary_to_csv,
    summarize_rtt,
    windowed_series,
)
from .rng import RngStream
from .rtt_model import HopConfig, RttBreakdown, calibrate_to_target, compute_rtt
from .sim_engine import (
    FadingSpec,
    SimulationConfig,
    SimulationResult,
    compare_fading,
    per_packet_error_probability,
    run_simulation,
    traffic_loopback,
)

__all__ = [
    "AwgnParams",
    "RayleighParams",
    "RicianParams",
    "channel_gain",
    "rayleigh_cdf",
    "rayleigh_pdf",
    "rician_pdf",
    "sample_awgn_batch",
    "sample_rayleigh_gain_batch",
    "sample_rician_gain_batch",
    "DomainError",
    "InstabilityError",
    "InvalidConfigError",
    "InvalidParameterError",
    "ShapeMismatchError",
    "StatisticalCheckError",
    "UnreachableTargetError",
    "QoSChainParams",
    "handshake_legs",
    "handshake_rows",
    "reliability",
    "reliability_monte_carlo",
    "QueueParams",
    "erlang_c_probability",
    "mean_wait_in_queue",
    "simulate_mmc",
    "IntervalReport",
    "RttSummary",
    "fading_comparison_table",
    "intervals_to_csv",
    "parse_intervals_csv",
    "rtt_summary_to_csv",
    "summarize_rtt",
    "windowed_series",
    "RngStream",
    "HopConfig",
    "RttBreakdown",
    "calibrate_to_target",
    "compute_rtt",
    "FadingSpec",
    "SimulationConfig",
    "SimulationResult",
    "compare_fading",
    "per_packet_error_probability",
    "run_simulation",
    "traffic_loopback",
]
