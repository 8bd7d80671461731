"""Dual (total) entropy and the entanglement measures built on it."""

__version__ = "0.1.0"

from .states import (PureState, SchmidtStack, DensityMatrix,
                     StateValidationError,
                     tensor, tensor_all, partial_trace, reduced_state,
                     permute_subsystems, spectrum, schmidt_spectrum, purity,
                     random_pure, random_density, random_unitary,
                     state_to_json, state_from_json)
from .entropy import (shannon, extropy, total_classical, g, von_neumann,
                      s_total, q_log, tsallis, tsallis_dual, tsallis_total,
                      t_total_q)
from .measures import (Bipartition, NormPolicy, MIN_DIM, DIM_A, DIM_B,
                       explicit, cut, norm_factor, concurrence_pure,
                       concurrence_two_qubit, h, e_t_pure, s_total_pure,
                       e_t_two_qubit, eof_pure, eof_two_qubit, f_q,
                       t_q_pure, t_q_pure_normalized, t_q_two_qubit)
from .convexroof import (EnsembleDecomposition, RoofConfig, RoofResult,
                         convex_roof)
from .monogamy import (ResidualReport, ScanResult, example3_state,
                       example3_family, example4_state, pairwise_marginal,
                       residual_tangle, e_t_example3_one_to_group,
                       pairwise_e_t_example3, eof_example3,
                       pairwise_e_t_example4, example6_values,
                       example5_report, example6_closed_form,
                       power_crossover, scan_example3, scan_example6)
from .dynamics import (SpinHamiltonian, H5_COUPLINGS, H6_COUPLINGS,
                       heisenberg, random_fields, plus_state, evolve,
                       entropy_trajectory, default_cuts, Trajectory)
from .network import (Edge, NetworkTopology, PolygonReport, one_to_group,
                      polygon_check, random_network, global_state, one_to_group_dense)
