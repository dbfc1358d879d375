"""Exact global LPV embeddings of nonlinear state-space systems.

Given xi(x) = f(x, u), y = h(x, u), the library factorizes f and h
through line integrals of their Jacobians into matrix functions that
reproduce the nonlinear system exactly, extracts an affine LPV model
A(p) = A0 + sum p_i A_i together with the scheduling map p = eta(x, u),
estimates scheduling ranges, and cross-checks the embedding by
self-scheduled simulation against the original dynamics.
"""

__version__ = "0.1.0"

from .expr import (                                    # noqa: F401
    Const, EntryError, EvalError, Expr, ExprError,
    NonDifferentiableError, UnboundVariableError, Var,
    simplify, substitute, to_string,
)
from .parser import ParseError, parse_expr             # noqa: F401
from .quadrature import (                              # noqa: F401
    QuadratureConvergenceError, QuadResult, integrate,
)
# the function factorize is not re-exported: lpvembed.factorize is the
# module (from lpvembed.factorize import factorize)
from .factorize import (                               # noqa: F401
    Anchor, DeferredIntegral, FactorizedSystem, MatrixFunction, ModelError,
    NlssModel, integrate_analytic, jacobian, line_substitute,
)
from .lpv import (                                     # noqa: F401
    CoeffFamily, LpvssModel, RangeBox, RangeGridError, SchedulingMap,
    VerifyReport, default_box, estimate_range, extract_element,
    extract_factor, verify_embedding,
)
from .sim import (                                     # noqa: F401
    GridMismatchError, InputSignal, SolverConfig, SolverError, Trajectory,
    read_input_csv, rmse, simulate_lpv_self_scheduled, simulate_nl,
    write_trajectory_csv,
)
from .modelfile import (                               # noqa: F401
    ModelDocument, ModelFileError, artifact_dict, load_artifact,
    load_model_file, save_artifact,
)
from .synthetic import random_model                    # noqa: F401
from . import models                                   # noqa: F401
