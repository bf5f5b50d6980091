"""Federated differentially private PCA for spiked covariance models.

Local clients release noise-privatized spectral projectors and eigenvalue
blocks; a central server aggregates them with rate-optimal weights and
assembles a covariance estimate. The package also ships the closed-form
rate evaluators used for weighting, comparison baselines, a two-round
message protocol with in-process/file/TCP transports, and a simulation
harness.
"""

from .client import ClientConfig, local_private_eigenvalues, local_private_projector
from .kernels import using_numba
from .messages import (
    BroadcastMessage,
    EigenvalueMessage,
    MessageDecodeError,
    MessageError,
    ProjectorMessage,
    decode,
    encode,
)
from .model import (
    Dataset,
    SpikedModel,
    covariance_matrix,
    load_dataset_csv,
    projection_distance,
    random_orthonormal,
    sample,
)
from .oja import OjaConfig, default_clip_norm, fed_dp_oja
from .privacy import (
    DegenerateSpectrumError,
    NoiseCalibration,
    PrivacyBudget,
    calibrate,
    empirical_projector_sensitivity,
    projector_sensitivity_bound,
    sample_symmetric_noise,
    sensitivity_margin,
)
from .protocol import (
    ClientHandle,
    FileTransport,
    InProcessTransport,
    ServerHandle,
    SessionError,
    SessionResult,
    TcpTransport,
    run_federated_session,
)
from .rates import (
    RateInputs,
    cov_bound,
    is_admissible,
    pca_bound,
    psi0_tilde,
    psi1_tilde,
)
from .server import (
    AggregationWeights,
    aggregate_projectors,
    aggregate_reference,
    assemble_covariance,
    cov_weights,
    pca_weights,
    weights_from_rate_inputs,
)
from .spectral import (
    EigenDecomposition,
    explained_variance,
    sample_covariance,
    svd_r,
    sym_eig,
)

__version__ = "0.1.0"
