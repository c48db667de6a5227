"""Relaxation plumbing: embeddings, objectives, conversion, solver, files."""

import numpy as np
import pytest

from relq.constellation import SdpSolutionP, solution_residuals
from relq.instance import Assignment, Instance, brute_force_optimum, evaluate, generate_instance
from relq.sdp import (
    FeasibilityReport,
    SdpSolutionPPlus,
    SolverConfig,
    convert_to_p,
    feasibility_report,
    format_solution,
    integral_embedding,
    load_solution,
    objective_p,
    objective_p_plus,
    parse_solution,
    save_solution,
    solve_p_plus,
)

# three mutually antipodal targets on four labels cannot all hold, and the
# vector optimum 3 * (1 + 1/2) / 2 = 2.25 beats every assignment's 2
GAP_TRIANGLE = Instance(p=4, n=3, equations=[(0, 1, 2), (1, 2, 2), (2, 0, 2)])


def _random_cases(count):
    rng = np.random.default_rng(20240817)
    for trial in range(count):
        n = int(rng.integers(2, 6))
        p = int(rng.choice([2, 4, 6, 8]))
        m = int(rng.integers(1, 9))
        inst, _ = generate_instance(n=n, p=p, m=m, seed=1000 + trial)
        asg = Assignment(positions=[int(x) for x in rng.integers(0, p, size=n)])
        yield inst, asg


def test_embedding_objective_matches_evaluate_on_100_cases():
    for inst, asg in _random_cases(100):
        sol = integral_embedding(inst, asg)
        want = float(evaluate(inst, asg).total)
        got = objective_p_plus(sol, inst)
        assert abs(got - want) <= 1e-9


def test_embedding_is_exactly_feasible():
    for inst, asg in list(_random_cases(20)):
        rep = feasibility_report(integral_embedding(inst, asg), inst)
        assert rep.kind == "pplus"
        assert rep.max_residual <= 1e-12


def test_conversion_preserves_objective_on_embeddings():
    for inst, asg in _random_cases(100):
        sol = integral_embedding(inst, asg)
        vsol = convert_to_p(sol)
        assert abs(objective_p(vsol, inst) - objective_p_plus(sol, inst)) <= 1e-8


def test_conversion_of_embedding_is_feasible_constellation():
    for inst, asg in list(_random_cases(20)):
        vsol = convert_to_p(integral_embedding(inst, asg))
        rep = feasibility_report(vsol, inst)
        assert rep.kind == "p"
        assert rep.max_residual <= 1e-12
        assert solution_residuals(vsol)["gram_law"] <= 1e-12


def test_embedding_rejects_bad_positions():
    inst = Instance(p=4, n=2, equations=[(0, 1, 1)])
    with pytest.raises(ValueError):
        integral_embedding(inst, Assignment(positions=[0, 4]))
    with pytest.raises(ValueError):
        integral_embedding(inst, Assignment(positions=[0]))


def test_objective_rejects_mismatched_instance():
    inst = Instance(p=4, n=2, equations=[(0, 1, 1)])
    other = Instance(p=8, n=2, equations=[(0, 1, 1)])
    sol = integral_embedding(inst, Assignment(positions=[0, 1]))
    with pytest.raises(ValueError):
        objective_p_plus(sol, other)


# --- solver ---------------------------------------------------------------


def test_solver_finds_gap_triangle_optimum():
    sol, rep = solve_p_plus(GAP_TRIANGLE)
    assert abs(rep.objective - 2.25) <= 1e-6
    assert rep.converged
    assert rep.max_residual <= 1e-6


@pytest.mark.parametrize(
    "n,p,m,seed,planted",
    [
        (3, 4, 5, 101, False),
        (4, 4, 8, 11, False),
        (3, 8, 6, 7, False),
        (4, 8, 7, 3, True),
        (5, 4, 10, 1, False),
    ],
)
def test_solver_meets_brute_force(n, p, m, seed, planted):
    inst, _ = generate_instance(n=n, p=p, m=m, seed=seed, planted=planted)
    _, best = brute_force_optimum(inst)
    sol, rep = solve_p_plus(inst)
    assert rep.objective >= float(best) - 1e-3
    assert rep.max_residual <= 1e-6
    assert rep.converged


def test_solver_value_bounds_the_optimum_where_a_line_search_undershot():
    # the relaxation value must bound the integer optimum 8.25; accepting
    # polishes cut off at a cycle cap landed on 8.2498568 here, "converged"
    inst, _ = generate_instance(n=6, p=8, m=10, seed=7)
    _, best = brute_force_optimum(inst)
    _, rep = solve_p_plus(inst)
    assert rep.objective >= float(best) - 1e-6
    assert rep.converged
    assert rep.max_residual <= 1e-6


def test_solver_factor_of_integral_optimum_has_dimension_p():
    # the planted optimum's Gram matrix is an integral embedding, of rank p;
    # eigenvalues of float noise must not add directions to the factor
    inst, _ = generate_instance(n=4, p=8, m=6, seed=21, planted=True)
    sol, rep = solve_p_plus(inst)
    assert sol.dim == inst.p == 8
    assert rep.max_residual <= 1e-6
    assert rep.converged


def test_solver_iterations_are_capped_engine_cycles():
    inst, _ = generate_instance(n=4, p=8, m=9, seed=2)
    _, full = solve_p_plus(inst)
    assert full.converged and 5 < full.iterations <= SolverConfig().max_iterations
    _, capped = solve_p_plus(inst, SolverConfig(max_iterations=5))
    assert capped.iterations == 5
    assert not capped.converged
    assert capped.max_residual <= 1e-6


def test_solver_trace_is_nondecreasing():
    inst, _ = generate_instance(n=4, p=8, m=9, seed=2)
    _, rep = solve_p_plus(inst)
    trace = rep.objective_trace
    assert len(trace) >= 2
    assert all(b - a >= -1e-10 for a, b in zip(trace, trace[1:]))


def test_solver_is_deterministic():
    inst, _ = generate_instance(n=3, p=8, m=6, seed=7)
    sol1, rep1 = solve_p_plus(inst)
    sol2, rep2 = solve_p_plus(inst)
    np.testing.assert_array_equal(sol1.u, sol2.u)
    assert rep1.objective_trace == rep2.objective_trace


def test_solver_output_converts_with_objective_preserved():
    inst, _ = generate_instance(n=4, p=4, m=8, seed=11)
    sol, rep = solve_p_plus(inst)
    vsol = convert_to_p(sol)
    assert abs(objective_p(vsol, inst) - rep.objective) <= 1e-8
    assert feasibility_report(vsol, inst).max_residual <= 1e-6


def test_solver_handles_empty_instance():
    inst = Instance(p=4, n=2, equations=[])
    sol, rep = solve_p_plus(inst)
    assert rep.objective == 0.0
    assert rep.max_residual <= 1e-9


def test_solver_size_guard():
    inst = Instance(p=512, n=3, equations=[(0, 1, 1)])
    with pytest.raises(ValueError):
        solve_p_plus(inst)


def test_feasibility_flags_violations():
    inst = Instance(p=4, n=2, equations=[(0, 1, 1)])
    sol = integral_embedding(inst, Assignment(positions=[0, 2]))
    sol.u[0, 0] *= 1.5
    rep = feasibility_report(sol, inst)
    assert rep.residuals["norm"] > 0.1
    with pytest.raises(TypeError):
        feasibility_report("not a solution")


# --- solution files -------------------------------------------------------


def test_solution_roundtrip_pplus(tmp_path):
    inst, _ = generate_instance(n=3, p=4, m=5, seed=42)
    sol, _ = solve_p_plus(inst, SolverConfig(max_iterations=500))
    path = tmp_path / "sol.txt"
    save_solution(sol, path)
    back = load_solution(path)
    assert isinstance(back, SdpSolutionPPlus)
    np.testing.assert_array_equal(back.u, sol.u)


def test_solution_roundtrip_p(tmp_path):
    inst = Instance(p=4, n=2, equations=[(0, 1, 1)])
    vsol = convert_to_p(integral_embedding(inst, Assignment(positions=[1, 3])))
    path = tmp_path / "vsol.txt"
    save_solution(vsol, path)
    back = load_solution(path)
    assert isinstance(back, SdpSolutionP)
    np.testing.assert_array_equal(back.v, vsol.v)


def test_solution_text_is_stable():
    inst = Instance(p=2, n=2, equations=[(0, 1, 1)])
    sol = integral_embedding(inst, Assignment(positions=[0, 1]))
    assert format_solution(sol) == format_solution(sol)
    text = format_solution(sol)
    assert text.splitlines()[0] == "relqsol 1"
    assert text.splitlines()[1] == "2 2 2 pplus"


def test_parse_solution_errors():
    with pytest.raises(ValueError):
        parse_solution("")
    with pytest.raises(ValueError):
        parse_solution("wrong 1\n2 2 2 pplus\n")
    with pytest.raises(ValueError):
        parse_solution("relqsol 1\n2 2 2 weird\n0 0\n0 0\n0 0\n0 0\n")
    with pytest.raises(ValueError):
        parse_solution("relqsol 1\n2 2 2 pplus\n0 0\n")  # missing rows
    with pytest.raises(ValueError):
        parse_solution("relqsol 1\n2 2 2 pplus\n0 0\n0 0\n0 0\n0 0 0\n")  # ragged
