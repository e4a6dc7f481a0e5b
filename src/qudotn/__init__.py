"""Tensor-network solvers for QUBO, QUDO and Tensor-QUDO problems."""

from .chain_solver import (ChainSolveResult, MessageState, backward_pass_matrix,
                           build_chain_stair, solve_matrix, solve_tensor,
                           transfer_operator_dense)
from .dense_solver import (StairNetwork, build_stair, contract_marginal,
                           solve_dense)
from .driver import METHODS, SolveOutcome, solve_instance
from .errors import (CapacityError, ConfigError, InstanceFormatError,
                     InvalidAssignmentError, NotAChainError, NumericFaultError,
                     QudotnError)
from .oracle import OracleResult, brute_force, direct_marginal
from .problem import (ChainProblem, Problem, chain_view, evaluate_cost,
                      parse_instance, random_instance, serialize_instance,
                      to_tqudo)
from .tn_core import (MarginalVector, SolverConfig, argmax_extract, bit_extract,
                      factor_cross, factor_self, normalize)
from .waterfall import (WaterfallResult, WaterfallStats, WaterfallTable,
                        candidate_table, check_cascade, solve_waterfall)

__all__ = [name for name in dir() if not name.startswith("_")]
