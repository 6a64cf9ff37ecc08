"""Simultaneous-triangularization precoding for two-user downlink MIMO-NOMA.

A precoder built from channel null spaces and QR decompositions turns both
users' MIMO channels into upper-triangular effective channels, so the link
decomposes into scalar NOMA subchannels under self-interference cancellation.
Power across streams is allocated by a convex-concave procedure, and ergodic
rate regions come from seeded Monte Carlo sweeps.
"""

from .linalg import joint_null_space, null_space, null_space_basis, qr_real_diag
from .power import (
    CcpRecord,
    CcpState,
    SolverSettings,
    ccp_allocate,
    ccp_allocate_draws,
    maximize_surrogate,
    project_power_budget,
    rate_underestimator,
    rates_and_underestimators,
)
from .rates import (
    RateBreakdown,
    StreamGains,
    rate_breakdown,
    rate_user1,
    rate_user2,
    weighted_sum_rate,
)
from .region import (
    RateRegionPoint,
    ergodic_region,
    hybrid_region,
    oma_region,
    p2p_capacity,
    st_noma_region,
)
from .system import (
    ChannelPair,
    StreamDims,
    SystemConfig,
    config_from_scenario,
    derive_dims,
    sample_channels,
)
from .transceiver import (
    CancelledSignals,
    PowerAllocation,
    build_symbol_vector,
    decode_user1,
    decode_user2,
    receive_and_detect,
    transmit,
)
from .triangularize import (
    StDecomposition,
    simultaneous_triangularize,
    triangularize_draws,
    verify_decomposition,
)

__version__ = "0.1.0"
