"""Low-rank quantum state tomography from sampled Pauli expectation values.

Pipeline: build a target pure state, sample Pauli monomials (base-4
codes), simulate basis measurements, form the (normalized) observation
vector, and recover a d x r factor U with rho = U U^dagger by
momentum-accelerated factored gradient descent.  Baselines, a data-parallel gradient engine, and a
generic Gaussian matrix-sensing benchmark live alongside.
"""

from .baselines import (
    CalibrationMatrix,
    MitigationError,
    pauli_linear_inversion,
    project_to_density,
    readout_mitigate,
    simplex_project,
)
from .linalg import PowerIterationError, operator_norm, top_eigen
from .measurements import (
    MeasurementRecord,
    PauliMonomial,
    PauliSetting,
    apply_monomial,
    born_probabilities,
    exact_expectation,
    expectation_from_distribution,
    expectation_from_record,
    sample_codes,
    sample_monomials,
    sample_record,
    setting_of,
)
from .metrics import (
    fidelity_density,
    fidelity_rank1,
    frobenius_error,
    procrustes_distance,
)
from .optimizer import (
    ConvergenceTrace,
    DivergenceError,
    OptimizerConfig,
    TraceRecord,
    compute_step_size,
    random_init,
    run,
    spectral_init,
    theoretical_mu,
)
from .parallel import parallel_gradient, parallel_run, partition
from .sensing import ObservationVector, SensingMap, observe, observe_with_records
from .states import (
    PureState,
    RandomCircuitSpec,
    density_of,
    ghz,
    ghz_minus,
    hadamard_all,
    random_state,
)
from .synthetic import (
    GaussianSensingMap,
    SyntheticProblem,
    generate_synthetic,
    run_synthetic_comparison,
)

__all__ = [name for name in dir() if not name.startswith("_")]
