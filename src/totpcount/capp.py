"""Acceptance-probability estimation and gap satisfiability for circuits.

For circuit families whose satisfying assignments are countable by a
branching-tree machine (DNF formulas, monotone circuits), the acceptance
probability p = #sat / 2^n is estimated directly.  CNF formulas go
through the complement route: the negation of a CNF is a DNF over the
same variables, q = Pr[negation accepts] is estimated, and p = 1 - q.

The machine uses n+1 choice bits for n input variables, so the additive
target over assignments is mapped onto the machine fraction by the
2^(n - height) rescaling before estimation.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedFamilyError
from .chain import BURN_CONST
from .estimator import TRANSPORTS, EstimateReport, EstimatorConfig, estimate_size
from .machine import build_branching_tree
from .problems import CnfFormula, DnfFormula, MonotoneCircuit, cnf_complement, dnf_instance, monotone_instance

DEFAULT_EPSILON = 1.0 / 6.0

CircuitInput = DnfFormula | CnfFormula | MonotoneCircuit


@dataclass(frozen=True)
class CappResult:
    """Estimated acceptance probability with its additive target."""

    p_hat: float
    epsilon: float
    route: str  # "direct" or "complement"
    report: EstimateReport


@dataclass(frozen=True)
class GapVerdict:
    """Promise-problem verdict: zero solutions versus more than rho * 2^n."""

    satisfiable: bool
    rho: float
    p_hat: float


def _direct_instance(circuit: CircuitInput):
    if isinstance(circuit, DnfFormula):
        return dnf_instance(circuit), circuit.n_vars, "direct"
    if isinstance(circuit, MonotoneCircuit):
        return monotone_instance(circuit), circuit.n_inputs, "direct"
    if isinstance(circuit, CnfFormula):
        return dnf_instance(cnf_complement(circuit)), circuit.n_vars, "complement"
    raise UnsupportedFamilyError(
        f"no branching-tree machine for inputs of type {type(circuit).__name__}; "
        "supported families: DNF, CNF, monotone circuits"
    )


def capp(
    circuit: CircuitInput,
    epsilon: float = DEFAULT_EPSILON,
    delta: float = 0.1,
    seed: int = 0,
    burn_const: float = BURN_CONST,
    transport: str = TRANSPORTS[0],
) -> CappResult:
    """Estimate Pr over uniform inputs that the circuit accepts, within epsilon.

    P[|p_hat - p| <= epsilon] >= 1 - delta, at the walk's burn-in
    multiplier ``burn_const`` (see ``EstimatorConfig``).  Unknown circuit
    families raise UnsupportedFamilyError rather than a silent answer.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    instance, n_inputs, route = _direct_instance(circuit)
    tree = build_branching_tree(instance)
    # Additive epsilon over 2^n assignments needs xi = epsilon * 2^(n - height)
    # on the machine fraction (height = n + 1 here).
    xi = epsilon * 2.0 ** (n_inputs - tree.height)
    config = EstimatorConfig(xi, delta, seed, burn_const, transport)
    report = estimate_size(tree, config)
    q_hat = min(max(report.size_estimate / 2.0**n_inputs, 0.0), 1.0)
    p_hat = 1.0 - q_hat if route == "complement" else q_hat
    return CappResult(p_hat=p_hat, epsilon=epsilon, route=route, report=report)


def gap_csat(
    circuit: CircuitInput,
    rho: float,
    delta: float = 0.1,
    seed: int = 0,
    burn_const: float = BURN_CONST,
    transport: str = TRANSPORTS[0],
) -> GapVerdict:
    """Decide the promise problem: zero solutions, or more than rho * 2^n.

    Runs the acceptance-probability estimator at epsilon = rho / 2 and
    answers satisfiable iff p_hat > rho / 2.  Behavior outside the
    promise is unspecified.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    result = capp(circuit, rho / 2.0, delta, seed, burn_const, transport)
    return GapVerdict(satisfiable=result.p_hat > rho / 2.0, rho=rho, p_hat=result.p_hat)
