"""Linear operator surrogates of controlled nonlinear systems, plus MPC.

The package fits discrete-time linear models in lifted coordinates (raw
state, monomial observables, time-delay stacks), identifies sparse generator
eigenfunctions, estimates box-partition transition chains, and closes the
loop with receding-horizon quadratic control on the true plant. The `cli`
module reproduces the forced van der Pol benchmark end to end.
"""

from .dynamics import (
    ControlSystem,
    ForcingSignal,
    SampleSet,
    Trajectory,
    generate_training_trajectories,
    make_vanderpol,
    product_sines_family,
    rk4_step,
    simulate,
    snapshots_from_trajectories,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    InfeasibleError,
    InsufficientDataError,
    InvalidInputError,
    KoopmpcError,
    MissingHistoryError,
    NoEigenfunctionError,
    UnsupportedDictionaryError,
)
from .mpc import (
    ClosedLoopResult,
    CondensedMpc,
    MpcConfig,
    MpcStep,
    closed_loop_run,
    mpc_step,
)
from .numerics import (
    QpProblem,
    SvdFactors,
    lstsq_min_norm,
    stationary_vector,
    truncated_svd,
)
from .observables import (
    DelayCoordinates,
    Dictionary,
    eval_dictionary,
    identity_dictionary,
    monomials_dictionary,
    recovery_matrix,
)
from .sysid import (
    Eigenfunction,
    LinearControlModel,
    fit_delay_augmented,
    fit_dmdc,
    fit_edmdc,
    identify_eigenfunctions,
    predict_rollout,
)
from .transfer import (
    BoxPartition,
    ControlledChain,
    DensityVector,
    TransitionMatrix,
    estimate_controlled_transition,
    invariant_density,
)

__version__ = "0.1.0"
