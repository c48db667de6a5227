"""Relaxation plumbing: embeddings, objectives, conversion, solver, files."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import relq.sdp
from oracles import integral_embedding, lift_solution, objective_p
from relq.constellation import SdpSolutionP, _shift_columns, _transpose_classes, solution_residuals, target_gram
from relq.instance import Instance, brute_force_optimum, circular_distance, evaluate, generate_instance
from relq.sdp import (
    _class_layout,
    _class_weights,
    _factor_gram,
    _frequency_blocks,
    _project_psd,
    _project_structure,
    FeasibilityReport,
    MAX_ENGINE_CYCLES,
    RANK_CUTOFF,
    SdpSolutionPPlus,
    convert_to_p,
    feasibility_report,
    format_solution,
    load_solution,
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
        asg = [int(x) for x in rng.integers(0, p, size=n)]
        yield inst, asg


def test_embedding_objective_matches_evaluate_on_100_cases():
    for inst, asg in _random_cases(100):
        sol = integral_embedding(inst, asg)
        want = float(evaluate(inst, asg))
        got = objective_p_plus(sol, inst)
        assert abs(got - want) <= 1e-9


def test_embedding_is_exactly_feasible():
    for inst, asg in list(_random_cases(20)):
        rep = feasibility_report(integral_embedding(inst, asg), inst)
        assert rep.max_residual <= 1e-12


def test_conversion_preserves_objective_on_embeddings():
    for inst, asg in _random_cases(100):
        sol = integral_embedding(inst, asg)
        vsol = convert_to_p(sol)
        assert abs(objective_p(vsol, inst) - objective_p_plus(sol, inst)) <= 1e-8


def test_conversion_of_embedding_is_feasible_constellation():
    for inst, asg in list(_random_cases(20)):
        vsol = convert_to_p(integral_embedding(inst, asg))
        assert _max_residual(solution_residuals(vsol)) <= 1e-12
        assert solution_residuals(vsol)["gram_law"] <= 1e-12


def test_embedding_rejects_bad_positions():
    inst = Instance(p=4, n=2, equations=[(0, 1, 1)])
    with pytest.raises(ValueError):
        integral_embedding(inst, [0, 4])
    with pytest.raises(ValueError):
        integral_embedding(inst, [0])


@pytest.mark.parametrize("cls", [SdpSolutionP, SdpSolutionPPlus])
@pytest.mark.parametrize(
    "sizes, shape, message",
    [
        ((3, 2, 3), (2, 3, 3), r"^domain size must be a positive even integer, got 3$"),
        ((0, 2, 3), (2, 0, 3), r"^domain size must be a positive even integer, got 0$"),
        ((4.0, 2, 3), (2, 4, 3), r"^domain size must be an integer, got 4\.0$"),
        ((4, 0, 3), (0, 4, 3), r"^n must be >= 1, got 0$"),
        ((4, 2.0, 3), (2, 4, 3), r"^n must be an integer, got 2\.0$"),
        ((4, 2, 0), (2, 4, 0), r"^dim must be >= 1, got 0$"),
        ((4, 2, 3), (2, 4, 2), r"^expected array of shape \(2, 4, 3\)$"),
    ],
)
def test_vector_solutions_refuse_bad_sizes(cls, sizes, shape, message):
    p, n, dim = sizes
    with pytest.raises(ValueError, match=message):
        cls(p, n, dim, np.zeros(shape))


def test_odd_domain_family_is_refused_before_rounding():
    # three labels meet the Gram law exactly (pairwise -1/3), but an odd p has
    # no antipodes, and rounding such a family puts every position in [0, 2)
    v = np.linalg.cholesky(target_gram(3))
    np.testing.assert_allclose(v @ v.T, target_gram(3), atol=1e-15)
    with pytest.raises(ValueError, match=r"^domain size must be a positive even integer, got 3$"):
        SdpSolutionP(p=3, n=1, dim=3, v=v[None])


def test_float_domain_is_refused_before_formatting():
    # unrefused, format_solution would fail later with a TypeError from range(4.0)
    with pytest.raises(ValueError, match=r"^domain size must be an integer, got 4\.0$"):
        format_solution(SdpSolutionPPlus(p=4.0, n=1, dim=1, u=np.zeros((1, 4, 1))))


def test_objective_rejects_mismatched_instance():
    inst = Instance(p=4, n=2, equations=[(0, 1, 1)])
    other = Instance(p=8, n=2, equations=[(0, 1, 1)])
    sol = integral_embedding(inst, [0, 1])
    with pytest.raises(ValueError):
        objective_p_plus(sol, other)


# --- solver ---------------------------------------------------------------

# oracles: the per-pair residual loops, structure projection and objective
# loops the one-pass versions replaced, and the dense PSD projection and
# factor of the (pn) x (pn) Gram matrix; the residual passes keep the loops'
# arithmetic, so they must agree bit for bit, and the class-mean projections
# and the block factor's Gram matrix must agree with the dense ones to 1e-12.
# Next to them, the pair-gather structure projection and the real-embedding
# PSD projection that the flat-index and Hermitian-block ones replaced: the
# first must agree bit for bit, the second to 1e-13


def _diagonal_class_index(p: int) -> np.ndarray:
    """idx[h, k] = (k - h) mod p, the shift class of entry (h, k) of a block."""
    k = np.arange(p)
    return (k[None, :] - k[:, None]) % p


def _covariance_residual(block: np.ndarray, cls: np.ndarray, p: int) -> tuple[float, np.ndarray]:
    """Max deviation from the per-shift-class mean, and the class means."""
    means = np.zeros(p)
    np.add.at(means, cls.ravel(), block.ravel())
    means /= p
    return float(np.max(np.abs(block - means[cls]))), means


def _oracle_solution_residuals(sol: SdpSolutionP) -> dict[str, float]:
    p, n = sol.p, sol.n
    cls = _diagonal_class_index(p)
    target = target_gram(p)
    r_gram = 0.0
    r_unit = 0.0
    r_cov = 0.0
    for i in range(n):
        gram = sol.v[i] @ sol.v[i].T
        r_gram = max(r_gram, float(np.max(np.abs(gram - target))))
        r_unit = max(r_unit, float(np.max(np.abs(np.diag(gram) - 1.0))))
        for j in range(i + 1, n):
            block = sol.v[i] @ sol.v[j].T
            r_cov = max(r_cov, _covariance_residual(block, cls, p)[0])
    return {"gram_law": r_gram, "unit_norm": r_unit, "shift_covariance": r_cov}


def _oracle_pplus_residuals(sol: SdpSolutionPPlus) -> dict[str, float]:
    p, n = sol.p, sol.n
    cls = _diagonal_class_index(p)
    r_norm = 0.0
    r_orth = 0.0
    r_nonneg = 0.0
    r_cov = 0.0
    r_sum = 0.0
    sums = sol.u.sum(axis=1)  # (n, dim)
    for i in range(n):
        gram = sol.u[i] @ sol.u[i].T
        r_norm = max(r_norm, float(np.max(np.abs(np.diag(gram) - 1.0 / p))))
        off = gram - np.diag(np.diag(gram))
        r_orth = max(r_orth, float(np.max(np.abs(off))))
        r_nonneg = max(r_nonneg, float(max(0.0, -np.min(gram))))
        r_cov = max(r_cov, _covariance_residual(gram, cls, p)[0])
        for j in range(i + 1, n):
            block = sol.u[i] @ sol.u[j].T
            r_nonneg = max(r_nonneg, float(max(0.0, -np.min(block))))
            r_cov = max(r_cov, _covariance_residual(block, cls, p)[0])
            r_sum = max(r_sum, float(np.linalg.norm(sums[i] - sums[j])))
    return {
        "norm": r_norm,
        "within_orthogonality": r_orth,
        "nonneg": r_nonneg,
        "shift_covariance": r_cov,
        "sum_vector": r_sum,
    }


def _oracle_objective_p_plus(sol, inst):
    p = sol.p
    coeff = np.empty(p)
    total = 0.0
    for i, j, d in inst.equations:
        for k in range(p):
            coeff[k] = p - 2 * circular_distance(k, d, p)
        total += float(coeff @ (sol.u[j] @ sol.u[i, 0]))
    return total


def _oracle_project_simplex(v, total):
    """Euclidean projection onto {c >= 0, sum(c) = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ranks = np.arange(1, v.size + 1)
    hits = np.nonzero(u - css / ranks > 0)[0]
    # the top rank always qualifies in exact arithmetic; fall back to it when
    # cancellation on extreme inputs empties the test
    rho = hits[-1] if hits.size else 0
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _oracle_project_structure(G, p, n, cls):
    out = (G + G.T) / 2.0
    eye = np.eye(p) / p
    for i in range(n):
        si = slice(i * p, (i + 1) * p)
        out[si, si] = eye
        for j in range(i + 1, n):
            sj = slice(j * p, (j + 1) * p)
            block = out[si, sj]
            means = np.zeros(p)
            np.add.at(means, cls.ravel(), block.ravel())
            means /= p
            proj = _oracle_project_simplex(means, 1.0 / p)
            newblock = proj[cls]
            out[si, sj] = newblock
            out[sj, si] = newblock.T
    return out


def _oracle_objective_matrix(inst):
    p, n = inst.p, inst.n
    W = np.zeros((p * n, p * n))
    for i, j, d in inst.equations:
        for k in range(p):
            c = (p - 2 * circular_distance(k, d, p)) / (2.0 * p)
            for h in range(p):
                a = i * p + h
                b = j * p + (h + k) % p
                W[a, b] += c
                W[b, a] += c
    return W


def _oracle_project_psd(G):
    w, V = np.linalg.eigh(G)
    return (V * np.clip(w, 0.0, None)) @ V.T


def _dense_gram(c: np.ndarray) -> np.ndarray:
    """The (p*n) x (p*n) Gram matrix of class means c: entry (i*p + h, j*p + (h + k) mod p) is c[i, j, k]."""
    n, _, p = c.shape
    blocks = np.empty((n, n, p, p))
    blocks[:, :, np.arange(p)[:, None], _shift_columns(p)] = c[:, :, None, :]
    return blocks.transpose(0, 2, 1, 3).reshape(n * p, n * p)


def _oracle_factor_gram(G, p, n):
    """Vectors whose Gram matrix is the PSD part of the dense G up to RANK_CUTOFF, shape (n, p, dim)."""
    w, V = np.linalg.eigh((G + G.T) / 2.0)
    np.clip(w, 0.0, None, out=w)
    keep = w >= w.max() * RANK_CUTOFF
    return (V[:, keep] * np.sqrt(w[keep])).reshape(n, p, -1)


CLASS_SHAPES = [(1, 2), (2, 2), (3, 4), (3, 6), (4, 8), (5, 12), (6, 8), (4, 16)]


def _symmetric_class_means(c):
    """Mean of class k of (i, j) and class -k of (j, i): the class means of a symmetric Gram matrix."""
    return (c + c.transpose(1, 0, 2)[..., _transpose_classes(c.shape[-1])]) / 2.0


def _class_inputs(n, p, rng):
    shape = (n, n, p)
    yield rng.standard_normal(shape)
    yield rng.standard_normal(shape) * 1e-3 + np.eye(p)[0] / p
    yield rng.integers(-2, 3, size=shape) / 4.0  # ties in the sort
    yield np.full(shape, -0.0)


def _oracle_pair_gather_structure(c):
    """The structure projection by pair gathers and take_along_axis, as before flat indices."""
    n, _, p = c.shape
    iu, ju = np.triu_indices(n, 1)
    neg = _transpose_classes(p)
    means = (c[iu, ju] + c[ju, iu][:, neg]) / 2.0
    means -= means.max(axis=1, keepdims=True)
    desc = np.sort(means, axis=1)[:, ::-1]
    css = np.cumsum(desc, axis=1) - 1.0 / p
    last = p - 1 - np.argmax((desc - css / np.arange(1, p + 1) > 0)[:, ::-1], axis=1)
    theta = np.take_along_axis(css, last[:, None], axis=1) / (last[:, None] + 1.0)
    proj = np.maximum(means - theta, 0.0)
    out = np.empty_like(c)
    out[np.arange(n), np.arange(n)] = np.eye(1, p) / p
    out[iu, ju] = proj
    out[ju, iu] = proj[:, neg]
    return out


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()  # signed zeros included


def _oracle_real_embedding_psd(c):
    """The PSD projection through real cos/sin bases and the real 2n x 2n embedding
    [[A_f, S_f], [-S_f, A_f]] of each Hermitian frequency block, as before the DFT matrix."""
    n, _, p = c.shape
    f = np.arange(p // 2 + 1)[:, None]
    angle = 2.0 * np.pi * (f * np.arange(p) % p) / p
    basis = np.concatenate([np.cos(angle), np.sin(angle)])
    inverse = basis * np.tile(np.where((f == 0) | (2 * f == p), 1.0, 2.0) / p, (2, 1))
    A, S = (c.reshape(n * n, p) @ basis.T).T.reshape(2, -1, n, n)
    blocks = np.empty((len(A), 2 * n, 2 * n))
    blocks[:, :n, :n] = blocks[:, n:, n:] = A
    blocks[:, :n, n:] = S
    blocks[:, n:, :n] = -S
    w, V = np.linalg.eigh((blocks + blocks.transpose(0, 2, 1)) / 2.0)
    np.clip(w, 0.0, None, out=w)
    P = (V * w[:, None, :]) @ V.transpose(0, 2, 1)
    coef = np.stack([P[:, :n, :n], P[:, :n, n:]]).reshape(-1, n * n)
    return (coef.T @ inverse).reshape(n, n, p)


@pytest.mark.parametrize("n,p", CLASS_SHAPES)
def test_one_pass_structure_projection_matches_per_pair_oracle(n, p):
    rng = np.random.default_rng(1000 * n + p)
    cls = _diagonal_class_index(p)
    layout = _class_layout(p, n)
    for c in _class_inputs(n, p, rng):
        c = _symmetric_class_means(c)
        got = _project_structure(c, layout)
        np.testing.assert_array_equal(got, _symmetric_class_means(got))
        want = _oracle_project_structure(_dense_gram(c), p, n, cls)
        np.testing.assert_allclose(_dense_gram(got), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,p", CLASS_SHAPES)
def test_flat_index_structure_projection_is_bit_exact(n, p):
    rng = np.random.default_rng(3000 * n + p)
    layout = _class_layout(p, n)
    for c in _class_inputs(n, p, rng):
        for case in (c, _symmetric_class_means(c)):
            _assert_same_bits(_project_structure(case, layout), _oracle_pair_gather_structure(case))


@pytest.mark.parametrize("n,p", CLASS_SHAPES)
def test_frequency_psd_projection_matches_dense_oracle(n, p):
    rng = np.random.default_rng(2000 * n + p)
    layout = _class_layout(p, n)
    for c in _class_inputs(n, p, rng):
        c = _symmetric_class_means(c)
        got = _dense_gram(_project_psd(c, layout))
        np.testing.assert_allclose(got, _oracle_project_psd(_dense_gram(c)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,p", CLASS_SHAPES + [(10, 20)])
def test_hermitian_psd_projection_matches_real_embedding_oracle(n, p):
    rng = np.random.default_rng(4000 * n + p)
    layout = _class_layout(p, n)
    for c in _class_inputs(n, p, rng):
        for case in (c, _symmetric_class_means(c)):
            got = _project_psd(case, layout)
            np.testing.assert_allclose(got, _oracle_real_embedding_psd(case), rtol=0, atol=1e-13)


def _huge_class_means():
    """The inputs that emptied the rank test before rows lost their max: (c, want of c[0, 1]) pairs."""
    p, n = 8, 3
    mixed = np.random.default_rng(5).standard_normal((n, n, p))
    mixed[0, 1, :3] = 1e20
    mixed[1, 2] = 1e20
    yield np.full((n, n, p), 1e20), None
    yield _symmetric_class_means(mixed), None
    pair = np.zeros((2, 2, 4))
    rows = [([1e20, 1e20, 1e20, -1.0], [1 / 12, 1 / 12, 1 / 12, 0.0]), ([1e20, 3.0, 1e20, 0.5], [0.125, 0.0, 0.125, 0.0])]
    for row, want in rows:
        pair[0, 1] = row
        yield _symmetric_class_means(pair), want


def test_huge_class_means_project_onto_the_simplex():
    for c, want in _huge_class_means():
        n, _, p = c.shape
        got = _project_structure(c, _class_layout(p, n))
        _assert_same_bits(got, _oracle_pair_gather_structure(c))
        if want is None:
            assert np.all(got >= 0.0)
            np.testing.assert_allclose(got.sum(axis=2), 1.0 / p, rtol=0, atol=1e-15)
        else:
            np.testing.assert_array_equal(got[0, 1], want)


def test_huge_equal_class_means_take_the_top_rank_fallback():
    # the input the oracle tests use to reach the fallback: no rank qualifies
    p = 8
    v = np.full(p, 1e20)
    css = np.cumsum(v) - 1.0 / p
    assert not np.any(v - css / np.arange(1, p + 1) > 0)
    # rank 0 gives theta = 1e20 - 1/p, which rounds to 1e20: every class clips to 0
    np.testing.assert_array_equal(_oracle_project_simplex(v, 1.0 / p), np.zeros(p))


def test_vector_objective_matrix_matches_equation_loop():
    shapes = [(2, 2, 1), (3, 4, 5), (4, 8, 9), (5, 12, 10), (6, 8, 12), (4, 16, 10)]
    for seed in range(10):
        for n, p, m in shapes:
            inst, _ = generate_instance(n=n, p=p, m=m, seed=seed)
            np.testing.assert_allclose(_dense_gram(_class_weights(inst)), _oracle_objective_matrix(inst), rtol=0, atol=1e-12)
    # five equations on one pair: cells take five terms whose sum depends on their order
    inst = Instance(p=12, n=2, equations=[(0, 1, 1), (1, 0, 5), (0, 1, 7), (1, 0, 2), (0, 1, 10)])
    np.testing.assert_allclose(_dense_gram(_class_weights(inst)), _oracle_objective_matrix(inst), rtol=0, atol=1e-12)
    empty = Instance(p=4, n=2, equations=[])
    np.testing.assert_array_equal(_class_weights(empty), np.zeros((2, 2, 4)))


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
    assert full.converged and 5 < full.iterations <= MAX_ENGINE_CYCLES
    _, capped = solve_p_plus(inst, max_iterations=5)
    assert capped.iterations == 5
    assert not capped.converged
    assert capped.max_residual <= 1e-6


def test_solver_trace_is_nondecreasing():
    inst, _ = generate_instance(n=4, p=8, m=9, seed=2)
    _, rep = solve_p_plus(inst)
    trace = rep.objective_trace
    assert len(trace) >= 2
    assert all(b - a >= -1e-10 for a, b in zip(trace, trace[1:]))


# (n, p, m, seed, planted, engine cycles, objective, dim, sha256 of u): the five
# solve_tight rungs, the solve_gap rung, the planted e2e instance and
# (6, 16, 15, 1), captured from the solver that factors the Hermitian frequency
# blocks; the cycles and dims are those of the dense solver, of the
# real-embedding projection and of the dense factor it replaced, and a refactor
# that claims bit-identical outputs must keep all of these
SOLVER_PINS = [
    (4, 8, 6, 1, False, 58, 4.249999999989494, 15, "ad9d590be393930d6d5031f4d2a5bcb0d320869e9c036c989419cc09e7f7e4ac"),
    (4, 12, 8, 1, False, 102, 5.499999999801081, 23, "95e0ca76f9c68705a9dc96de825f51a8d9b838f34a8c89d232e45ad024be3c54"),
    (4, 16, 10, 1, False, 228, 6.749999999550207, 31, "8d46e0df1ef2cab29e63b221042e334f2cf6a8638188f30f9e0e1591b231267a"),
    (5, 12, 10, 1, False, 325, 7.16666666634596, 34, "485cac5dd010c4d056353a5e75e4af7515bd963a11cd581c94bfd2c6442ff695"),
    (6, 8, 8, 1, False, 243, 6.750000000239458, 15, "aae02cf9e3c47271d64b7518ca66fba26baaf78708d9bf3904ac03a64aeee788"),
    (6, 8, 12, 3, False, 821, 9.329221776208177, 32, "bad9a0eec2a19bc4f6f507393797a08a02c6a1025d7cbf2482424bb826831772"),
    (4, 8, 6, 21, True, 21, 5.999999999930378, 8, "24e31206a18b6197b35e749afde72ed72e89171289d4c323154361ceff724a74"),
    (6, 16, 15, 1, False, 1892, 10.988736720123825, 48, "59af21b6f393b1aa60882b95cd322023c450f73666fb239a37c60f59abc4e224"),
]


@pytest.mark.parametrize(
    "n,p,m,seed,planted,iterations,objective,dim,digest", SOLVER_PINS, ids=["-".join(map(str, pin[:5])) for pin in SOLVER_PINS]
)
def test_solver_rungs_pinned(n, p, m, seed, planted, iterations, objective, dim, digest):
    inst, _ = generate_instance(n=n, p=p, m=m, seed=seed, planted=planted)
    sol, rep = solve_p_plus(inst)
    assert (rep.iterations, repr(rep.objective), sol.dim) == (iterations, repr(objective), dim)
    assert hashlib.sha256(sol.u.tobytes()).hexdigest() == digest


def _factor_input(monkeypatch, n, p, m, seed, planted):
    """Solve generate_instance(n, p, m, seed, planted); the solution and the class means and layout it was factored from."""
    seen = []
    factor = relq.sdp._factor_gram

    def capture(c, layout):
        seen.append((c, layout))
        return factor(c, layout)

    monkeypatch.setattr(relq.sdp, "_factor_gram", capture)
    inst, _ = generate_instance(n=n, p=p, m=m, seed=seed, planted=planted)
    sol, _ = solve_p_plus(inst)
    ((c, layout),) = seen
    return sol, c, layout


@pytest.mark.parametrize("n,p,m,seed,planted", [pin[:5] for pin in SOLVER_PINS] + [(5, 4, 10, 1, False)])
def test_rank_cutoff_keeps_its_margin(n, p, m, seed, planted, monkeypatch):
    # the factorization drops eigenvalues under RANK_CUTOFF of the largest as
    # float noise; either side coming within a decade of the cutoff fails here.
    # Block f pairs with block p - f for 0 < f < p/2, so those count twice,
    # as in the (pn) x (pn) Gram matrix
    sol, c, layout = _factor_input(monkeypatch, n, p, m, seed, planted)
    w = np.linalg.eigvalsh(_frequency_blocks(c, layout[4]))
    f = np.arange(len(w))
    w = np.concatenate([w, w[(f > 0) & (2 * f < p)]]).ravel()
    assert len(w) == p * n
    rel = w / w.max()
    assert rel[rel < RANK_CUTOFF].max(initial=0.0) <= 1e-8
    assert rel[rel >= RANK_CUTOFF].min() >= 1e-6
    assert np.count_nonzero(rel >= RANK_CUTOFF) == sol.dim


@pytest.mark.parametrize(
    "n,p,m,seed,planted", [pin[:5] for pin in SOLVER_PINS] + [(5, 4, 10, 1, False), (3, 4, 5, 3, False), (2, 4, 0, 1, False)]
)
def test_block_factor_matches_dense_oracle(n, p, m, seed, planted, monkeypatch):
    sol, c, _ = _factor_input(monkeypatch, n, p, m, seed, planted)
    want = _oracle_factor_gram(_dense_gram(c), p, n).reshape(n * p, -1)
    got = sol.u.reshape(n * p, -1)
    assert sol.dim == want.shape[1]
    np.testing.assert_allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n,p,m,seed,planted", [(4, 8, 6, 21, True), (6, 8, 12, 3, False), (4, 12, 8, 1, False), (6, 16, 15, 1, False)])
def test_factor_is_a_function_of_the_class_means(n, p, m, seed, planted, monkeypatch):
    # every kept eigenvalue of these blocks is simple, so the factor moves with
    # its class means; the dense Gram matrix has each one twice (blocks f and
    # p - f), and its eigh basis moved by 0.17 to 0.35 per coordinate here
    sol, c, layout = _factor_input(monkeypatch, n, p, m, seed, planted)
    noise = _symmetric_class_means(np.random.default_rng(seed).standard_normal(c.shape)) * 1e-13
    moved = _factor_gram(c + noise, layout)
    assert moved.shape == sol.u.shape
    assert np.max(np.abs(moved - sol.u)) <= 1e-9


def test_solver_runs_eigh_only_on_frequency_blocks(monkeypatch):
    # the projections and the factor read the p/2 + 1 Hermitian n x n blocks;
    # no (pn) x (pn) matrix reaches eigh
    shapes = []
    eigh = np.linalg.eigh

    def record(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", record)
    inst, _ = generate_instance(n=4, p=8, m=6, seed=1)
    solve_p_plus(inst)
    assert len(shapes) > 2 and set(shapes) == {(5, 4, 4)}


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
    assert _max_residual(solution_residuals(vsol)) <= 1e-6


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
    sol = integral_embedding(inst, [0, 2])
    sol.u[0, 0] *= 1.5
    rep = feasibility_report(sol, inst)
    assert rep.residuals["norm"] > 0.1
    with pytest.raises(TypeError):
        feasibility_report("not a solution", inst)
    with pytest.raises(TypeError):
        feasibility_report(convert_to_p(sol), inst)


# --- residuals: one pass over the Gram blocks against the per-pair loops ----


def _hex(residuals):
    return {name: value.hex() for name, value in residuals.items()}  # signed zeros included


def _max_residual(residuals):
    """The constellation form's max residual, as round_lifted_solution reduces it: a NaN reads NaN."""
    return float(np.max(list(residuals.values())))


def _assert_residuals_match_oracle(sol, inst=None):
    if isinstance(sol, SdpSolutionPPlus):
        rep = feasibility_report(sol, inst)
        residuals, worst = rep.residuals, rep.max_residual
        want = _oracle_pplus_residuals(sol)
        assert rep.objective.hex() == _oracle_objective_p_plus(sol, inst).hex()
    else:
        residuals = solution_residuals(sol)
        worst = _max_residual(residuals)
        want = _oracle_solution_residuals(sol)
    assert _hex(residuals) == _hex(want)
    assert worst.hex() == max(want.values()).hex()


def _assert_both_forms_match_oracle(sol, inst):
    _assert_residuals_match_oracle(sol, inst)
    vsol = convert_to_p(sol)
    _assert_residuals_match_oracle(vsol)
    _assert_residuals_match_oracle(lift_solution(vsol, 3))


@pytest.mark.parametrize("n,p,m,seed,planted", [pin[:5] for pin in SOLVER_PINS] + [(3, 4, 5, 101, False)])
def test_residual_pass_matches_oracle_on_solver_output(n, p, m, seed, planted):
    inst, _ = generate_instance(n=n, p=p, m=m, seed=seed, planted=planted)
    sol, _ = solve_p_plus(inst)
    _assert_both_forms_match_oracle(sol, inst)


@pytest.mark.parametrize("n,p,dim", [(1, 4, 3), (3, 6, 5)])
def test_residual_pass_matches_oracle_on_random_vectors(n, p, dim):
    inst = generate_instance(n=n, p=p, m=5, seed=n)[0] if n > 1 else Instance(p=p, n=1, equations=[])
    u = np.random.default_rng(n).standard_normal((n, p, dim)) / np.sqrt(p)
    _assert_both_forms_match_oracle(SdpSolutionPPlus(p=p, n=n, dim=dim, u=u), inst)


def test_residual_pass_matches_oracle_on_integral_embeddings():
    for inst, asg in _random_cases(40):
        _assert_both_forms_match_oracle(integral_embedding(inst, asg), inst)


def test_residual_pass_propagates_a_nan_row():
    # the per-pair loops took Python max(0.0, nan) == 0.0 and read finite
    inst = Instance(p=4, n=3, equations=[(0, 1, 1)])
    sol = integral_embedding(inst, [0, 1, 3])
    vsol = convert_to_p(sol)
    sol.u[1, 2, 0] = np.nan
    vsol.v[1, 2, 0] = np.nan
    assert np.isfinite(list(_oracle_pplus_residuals(sol).values())).all()
    assert np.isfinite(list(_oracle_solution_residuals(vsol).values())).all()
    rep = feasibility_report(sol, inst)
    vres = solution_residuals(vsol)
    for residuals, worst in ((rep.residuals, rep.max_residual), (vres, _max_residual(vres))):
        assert all(np.isnan(r) for r in residuals.values()), residuals
        assert np.isnan(worst)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_gives_non_finite_max_residual(bad):
    inst, _ = generate_instance(n=3, p=8, m=4, seed=5)
    sol, _ = solve_p_plus(inst, max_iterations=50)
    sol.u[2, 5, 1] = bad
    assert not np.isfinite(feasibility_report(sol, inst).max_residual)
    vsol = convert_to_p(integral_embedding(inst, [1, 2, 3]))
    vsol.v[0, 3, 2] = bad
    assert not np.isfinite(_max_residual(solution_residuals(vsol)))


def test_feasibility_report_memory_stays_near_one_row_of_blocks():
    # an all-pairs (n, n, p, p) batch would need n*u.nbytes here, 128 MiB
    u = np.random.default_rng(64).standard_normal((64, 64, 64)) / 8.0
    sol = SdpSolutionPPlus(p=64, n=64, dim=64, u=u)
    inst = Instance(p=64, n=64, equations=[(i, (i + 1) % 64, i) for i in range(64)])
    tracemalloc.start()
    try:
        feasibility_report(sol, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * sol.u.nbytes


# --- solution files -------------------------------------------------------


def test_solution_roundtrip_pplus(tmp_path):
    inst, _ = generate_instance(n=3, p=4, m=5, seed=42)
    sol, _ = solve_p_plus(inst, max_iterations=500)
    path = tmp_path / "sol.txt"
    save_solution(sol, path)
    back = load_solution(path)
    assert isinstance(back, SdpSolutionPPlus)
    np.testing.assert_array_equal(back.u, sol.u)


def test_solution_files_hold_assignment_vectors_only():
    # relq round converts what relq solve writes; the constellation form stays in memory
    inst = Instance(p=4, n=2, equations=[(0, 1, 1)])
    vsol = convert_to_p(integral_embedding(inst, [1, 3]))
    with pytest.raises(TypeError, match="SdpSolutionP"):
        format_solution(vsol)
    with pytest.raises(ValueError, match="^unknown solution kind 'p', expected 'pplus'$"):
        parse_solution("relqsol 1\n4 2 2 p\n" + "0 0\n" * 8)


def test_solution_text_is_stable():
    inst = Instance(p=2, n=2, equations=[(0, 1, 1)])
    sol = integral_embedding(inst, [0, 1])
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
    with pytest.raises(ValueError, match="bad size line '2 0 2 p'"):
        parse_solution("relqsol 1\n2 0 2 p\n")


@pytest.mark.parametrize(
    "size",
    ["4 x 2 pplus", "4 3 pplus", "4 3 2 1 pplus", "pplus", "-2 1 1 p", "0 1 1 p", "3 1 1 p", "4 0 1 p", "4 1 0 p", "4 -1 1 p"],
)
def test_parse_solution_rejects_bad_size_lines(size):
    # every size is checked before any vector line is read
    with pytest.raises(ValueError, match=f"^bad size line {size!r}"):
        parse_solution(f"relqsol 1\n{size} # sizes\n0\n")


def test_parse_solution_names_the_line_of_a_bad_coordinate():
    with pytest.raises(ValueError, match="^bad coordinate on line 5$"):
        parse_solution("relqsol 1\n2 2 2 pplus\n0 0\n0 0\n0 abc\n0 0\n")
    with pytest.raises(ValueError, match="^bad coordinate on line 4$"):
        parse_solution("relqsol 1\n2 1 2 pplus\n\n1,0 0\n0 1\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_parse_solution_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="non-finite coordinate on line 5"):
        parse_solution(f"relqsol 1\n2 2 2 pplus\n0 0\n0 0\n0 {bad}\n0 0\n")
    # line numbers count comment and blank lines too
    with pytest.raises(ValueError, match="non-finite coordinate on line 7"):
        parse_solution(f"relqsol 1\n# comment\n2 2 2 pplus\n\n0 0\n0 0\n0 {bad}\n0 0\n")
