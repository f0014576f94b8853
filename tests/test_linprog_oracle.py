"""The tail-average dual solved as a linear program by HiGHS, a third route
next to the greedy primal and the vertex enumeration.

The program is ``max sum_i w_i p_i z_i`` subject to ``0 <= w_i <= cap`` and
``sum_i w_i p_i = 1``, with ``cap = 1 / (1 - alpha)`` (Rockafellar and
Uryasev, J. Risk 2000).  It has no atom limit, so it also checks the primal
beyond ``MAX_LP_ATOMS``.  scipy is a test dependency only; the last test
checks that the command-line program never imports it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import riskdp
from riskdp.oracle import MAX_LP_ATOMS, avar_lp_oracle
from riskdp.risk import DiscreteDistribution, avar_primal


def linprog_dual(alpha, dist, cap_scale=1.0):
    """Optimal value of the dual program, or None when it is infeasible."""
    cap = cap_scale / (1.0 - alpha)
    probs, values = dist.probs, dist.values
    result = linprog(
        -(probs * values),
        A_eq=probs[None, :],
        b_eq=[1.0],
        bounds=[(0.0, cap)] * len(dist),
        method="highs",
        # HiGHS's default 1e-7 lets a density exceed the cap by that much:
        # at alpha 1e-9 it returned 9 * cap for a single atom at 9
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    return -result.fun


@st.composite
def distributions(draw, min_atoms, max_atoms):
    k = draw(st.integers(min_atoms, max_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.uniform(0.05, 1.0, size=k)
    # rounded values tie
    values = rng.uniform(-10.0, 10.0, size=k).round(draw(st.integers(0, 3)))
    return DiscreteDistribution(values, probs / probs.sum())


alphas = st.sampled_from([0.0, 0.5, 0.9, 0.999]) | st.floats(0.0, 0.999)


@settings(max_examples=200, deadline=None)
@given(distributions(1, MAX_LP_ATOMS), alphas, st.sampled_from([1.0, 2.0]))
def test_vertex_enumeration_matches_linprog(dist, alpha, cap_scale):
    expected = linprog_dual(alpha, dist, cap_scale)
    assert abs(avar_lp_oracle(alpha, dist, cap_scale) - expected) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(distributions(MAX_LP_ATOMS + 1, 40), alphas)
def test_primal_matches_linprog_beyond_the_vertex_budget(dist, alpha):
    assert abs(avar_primal(alpha, dist) - linprog_dual(alpha, dist)) <= 1e-9


@pytest.mark.parametrize("k", [1, 3, MAX_LP_ATOMS])
def test_an_undersized_cap_is_infeasible_on_every_route(k):
    """A density capped at 0.75 cannot carry unit mass."""
    dist = DiscreteDistribution(np.arange(k, dtype=float), np.full(k, 1.0 / k))
    assert linprog_dual(0.0, dist, 0.75) is None
    with pytest.raises(RuntimeError, match="no feasible dual vertex found"):
        avar_lp_oracle(0.0, dist, 0.75)


def test_the_command_line_program_does_not_import_scipy():
    src = str(Path(riskdp.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, riskdp.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
