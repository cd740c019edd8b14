"""Quantized and one-bit low-rank matrix completion toolkit.

Layers, bottom-up: ``core`` (masks and the seeded low-rank matrix),
``quantize`` (scalar/dithered/stochastic quantizers and dither arrays),
``onebit`` (sign observations, each its own constraint polyhedron),
``solvers`` (nuclear-norm programs), ``bounds`` (closed-form recovery
guarantees), ``harness`` (seeded Monte Carlo experiments and CSV reports).
Between layers pass the arrays themselves: a matrix, a dither array, an
observation's signs and thresholds.
"""

from .bounds import (
    BoundInputs,
    BoundValue,
    TightnessResult,
    bound_inconsistent,
    bound_noisy,
    bound_quantized,
    bound_statistics_only,
    bound_subgaussian,
    bound_uniform,
    compare_tightness,
    epsilon_decay_rate,
)
from .core import (
    Dims,
    SampleMask,
    generate_low_rank,
    project,
    sample_mask_uniform,
    scatter_vector,
    select_vector,
)
from .harness import ExperimentConfig, TrialRecord, emit_report, fit_rate, load_config, run_experiment
from .onebit import (
    OneBitObservation,
    UnsupportedModeError,
    build_polyhedron,
    consistency_report,
    hamming,
    observe_one_bit,
    strip_thresholds,
    surrogate_data,
    t_ave,
    violation_measure,
)
from .quantize import (
    DitherSpec,
    QuantizerSpec,
    dithered_quantize,
    generate_dither_tensor,
    one_bit,
    quantize_matrix,
    scalar_quantize,
    stochastic_quantize,
)
from .solvers import (
    SolverReport,
    prox_nuclear,
    solve_one_bit_mc,
    solve_quantized_mc,
)

__version__ = "0.1.0"
