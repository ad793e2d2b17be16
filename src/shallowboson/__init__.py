"""Shallow linear-optical circuits as variational samplers.

The package simulates sliced triangular meshes exactly in the Fock basis,
coarse-grains detection patterns to qubit bit strings through the parity
maps, runs the variational solver on QUBO/Ising/portfolio problems, and
verifies the staircase-path combinatorics of the reachable state spaces
(Dyck counts, Young lattices, Boolean sublattices) by enumeration.
"""

from .fock import SectorBasis, enumerate_basis, sector_size
from .interferometer import (
    TwoModeGate, CircuitSpec, QuantumState, build_reck_slices, reck_input,
    apply_gate, evolve, evolve_batch, exact_distribution, support,
    schwinger_expectation, two_mode_block, two_mode_transfer,
    single_particle_transfer,
)
from .parity import (
    parity_map, coarse_grain, upsilon0, upsilon0_prime, binom_identity_check,
    verify_surjectivity, CoverageReport,
)
from .dyck import (
    DyckSpec, dyck_count, enumerate_dyck_paths, staircase_path,
    staircase_to_word, catalan_dyck_spec, catalan_number,
)
from .young import (
    YoungLattice, young_lattice, ferrers_to_pattern, pattern_to_ferrers,
    catalan_basis, catalan_mu, catalan_lattice, vertex_to_pattern,
    box_bitstring_apply, parity_distinctness_check, count_boolean_sublattices,
    ordinal_sum_decomposition, export_lattice_text, export_lattice_json,
)
from .sampling import sample_patterns, chain_sample_depth1_batch
from .solver import (
    SolverConfig, SolverResult, ParityObjective, finite_difference_gradient,
    gradient_step, run_variational,
)
from .problems import (
    QuboProblem, IsingProblem, MobiusProblem, PortfolioProblem, qubo_energy,
    qubo_to_ising, mobius_min, brute_force_min, benchmark_qubo6,
    benchmark_qubo11, portfolio_returns_from_prices, binary_encode_weights,
    portfolio_energy_penalty, portfolio_energy_normalized,
    count_unit_sum_allocations, run_portfolio, random_portfolio_cloud,
    synthetic_portfolio, allocation_risk_return,
)

__all__ = [
    "SectorBasis", "enumerate_basis", "sector_size", "TwoModeGate",
    "CircuitSpec", "QuantumState", "build_reck_slices", "reck_input",
    "apply_gate", "evolve", "evolve_batch", "exact_distribution", "support",
    "schwinger_expectation", "two_mode_block", "two_mode_transfer",
    "single_particle_transfer", "parity_map", "coarse_grain", "upsilon0",
    "upsilon0_prime", "binom_identity_check", "verify_surjectivity",
    "CoverageReport", "DyckSpec", "dyck_count", "enumerate_dyck_paths",
    "staircase_path", "staircase_to_word", "catalan_dyck_spec",
    "catalan_number", "YoungLattice", "young_lattice", "ferrers_to_pattern",
    "pattern_to_ferrers", "catalan_basis", "catalan_mu", "catalan_lattice",
    "vertex_to_pattern", "box_bitstring_apply", "parity_distinctness_check",
    "count_boolean_sublattices", "ordinal_sum_decomposition",
    "export_lattice_text", "export_lattice_json", "sample_patterns",
    "chain_sample_depth1_batch", "SolverConfig", "SolverResult",
    "ParityObjective", "finite_difference_gradient", "gradient_step",
    "run_variational",
    "QuboProblem", "IsingProblem", "MobiusProblem", "PortfolioProblem",
    "qubo_energy", "qubo_to_ising", "mobius_min", "brute_force_min",
    "benchmark_qubo6", "benchmark_qubo11", "portfolio_returns_from_prices",
    "binary_encode_weights", "portfolio_energy_penalty",
    "portfolio_energy_normalized", "count_unit_sum_allocations",
    "run_portfolio", "random_portfolio_cloud", "synthetic_portfolio",
    "allocation_risk_return",
]
__version__ = "0.1.0"
