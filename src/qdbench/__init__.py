"""qdbench: quantum-domain benchmarking for continuous-variable devices.

Decides whether a communication device (channel or memory) preserves
entanglement, given a finite ensemble of mixed test states and limited
measurement data, by optimizing purification Gram matrices and computing
certified lower bounds on output-state negativity with a dense semidefinite
program solver.  Phase-symmetric ensembles are handled exactly through a
block-circulant standard form.
"""

__version__ = "0.1.0"

from .bench import (BenchmarkResult, Quadratures, QuadraturesWithErrors,  # noqa: E402
                    Tomography, benchmark_general, benchmark_symmetric,
                    input_negativity)
from .blocksym import (BipartiteBlockMatrix, from_standard_form, gram_of,  # noqa: E402
                       negativity, negativity_stform, partial_transpose, pt_rearrange,
                       symmetry_check, to_standard_form, twirl)
from .fock import (DensityMatrix, TruncationError,  # noqa: E402
                   coherent_state, fidelity, noisy_coherent, number_operator,
                   quadratures, rotation, trace_norm)
from .gramopt import (GramMatrix, GramOptResult, cptp_reachable, gram_purity,  # noqa: E402
                      optimize_gram, purity_upper_bound, rotation_ensemble)
from .pipeline import run_pipeline  # noqa: E402
from .sdp import SDPConfig, SDPProblem, SDPSolution, SDPStatus, solve  # noqa: E402

__all__ = [
    "__version__",
    "BenchmarkResult", "Quadratures", "QuadraturesWithErrors", "Tomography",
    "benchmark_general", "benchmark_symmetric", "input_negativity",
    "BipartiteBlockMatrix", "from_standard_form",
    "gram_of", "negativity", "negativity_stform", "partial_transpose", "pt_rearrange",
    "symmetry_check", "to_standard_form", "twirl",
    "DensityMatrix", "TruncationError", "coherent_state", "fidelity",
    "noisy_coherent", "number_operator", "quadratures", "rotation", "trace_norm",
    "GramMatrix", "GramOptResult", "cptp_reachable", "gram_purity", "optimize_gram",
    "purity_upper_bound", "rotation_ensemble",
    "run_pipeline",
    "SDPConfig", "SDPProblem", "SDPSolution", "SDPStatus", "solve",
]
