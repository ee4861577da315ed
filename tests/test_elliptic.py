"""Elliptic groundwater model: solver, adjoint gradient, curvature action."""

import numpy as np
import pytest

from drgmc import elliptic
from drgmc.config import RunConfig
from drgmc.harness import build_elliptic, build_model, run_from_config

from _dense_reference import loop_cell_areas, loop_edge_arrays, loop_observation_matrix


def small_problem(k=8, snr=10.0, seed=0):
    mesh = elliptic.Mesh2D(k, k)
    problem = elliptic.make_problem(mesh)
    u_true = elliptic.true_field(mesh)
    elliptic.generate_data(u_true, problem, snr, seed)
    return mesh, problem, u_true


class TestMeshAndForcing:
    def test_node_layout(self):
        mesh = elliptic.Mesh2D(4, 3)
        assert mesh.n_nodes == 5 * 4
        nodes = mesh.nodes
        assert nodes.shape == (20, 2)
        assert np.allclose(nodes[mesh.node_index(4, 3)], [1.0, 1.0])
        assert np.allclose(nodes[mesh.node_index(0, 0)], [0.0, 0.0])

    def test_forcing_is_balanced(self):
        # pure-Neumann compatibility: the source must integrate to zero
        mesh = elliptic.Mesh2D(12, 12)
        problem = elliptic.make_problem(mesh)
        assert abs(problem.forcing @ problem.areas) < 1e-8

    def test_sensor_grid(self):
        sensors = elliptic.default_sensors()
        assert sensors.shape == (25, 2)
        assert sensors.min() > 0.0 and sensors.max() < 1.0

    def test_sensors_outside_domain_rejected(self):
        mesh = elliptic.Mesh2D(4, 4)
        with pytest.raises(ValueError, match="interior"):
            elliptic.make_problem(mesh, sensors=np.array([[0.0, 0.5]]))

    def test_observation_interpolates_bilinear_exactly(self):
        # O applied to a bilinear nodal field reproduces point values
        mesh = elliptic.Mesh2D(7, 5)
        problem = elliptic.make_problem(mesh)
        a, b, c = 0.3, -1.2, 0.7
        nodal = a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
        direct = a + b * problem.sensors[:, 0] + c * problem.sensors[:, 1]
        assert np.allclose(problem.O @ nodal, direct, atol=1e-12)


    @pytest.mark.parametrize("nx, ny", [(2, 9), (7, 5), (20, 20), (40, 40)])
    def test_tables_equal_the_loop_builds(self, nx, ny):
        mesh = elliptic.Mesh2D(nx, ny)
        sensors = np.vstack([elliptic.default_sensors(), [[0.999, 0.001], [0.5, 0.75]]])
        for got, want in zip(elliptic._edge_arrays(mesh), loop_edge_arrays(mesh)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(elliptic._cell_areas(mesh), loop_cell_areas(mesh))
        assert np.array_equal(elliptic._observation_matrix(mesh, sensors),
                              loop_observation_matrix(mesh, sensors))


class TestForwardSolve:
    def test_solution_mean_zero_and_conservative(self):
        mesh, problem, u_true = small_problem(10)
        res = elliptic.assemble_and_solve(u_true, problem)
        assert abs(res.p.mean()) < 1e-10
        # residual of the interior balance: A p = b up to the mean constraint
        ea, eb = problem._ea, problem._eb
        flux = res.t * (res.p[ea] - res.p[eb])
        div = np.zeros(problem.n)
        np.add.at(div, ea, flux)
        np.add.at(div, eb, -flux)
        assert np.allclose(div, problem.b, atol=1e-9 * np.abs(problem.b).max())

    @pytest.mark.parametrize("nx, ny", [(8, 8), (7, 5), (5, 7), (2, 2)],
                             ids=["8x8", "7x5", "5x7", "2x2"])
    def test_solve_is_zero_mean_pseudo_inverse(self, nx, ny):
        # dense oracle: the singular Neumann stiffness and its pseudo-inverse;
        # the adjoint source O^T r does not sum to zero, so the solve must
        # project it before solving. The band layout depends on nx alone, so
        # non-square meshes check both offsets (1 and nx + 1).
        mesh = elliptic.Mesh2D(nx, ny)
        problem = elliptic.make_problem(mesh)
        res = elliptic.assemble_and_solve(elliptic.true_field(mesh), problem)
        ea, eb = problem._ea, problem._eb
        A = np.zeros((problem.n, problem.n))
        np.add.at(A, (ea, ea), res.t)
        np.add.at(A, (eb, eb), res.t)
        np.add.at(A, (ea, eb), -res.t)
        np.add.at(A, (eb, ea), -res.t)
        A_pinv = np.linalg.pinv(A)
        rng = np.random.default_rng(5)
        z = rng.standard_normal(problem.n)
        adjoint_source = problem.O.T @ rng.standard_normal(len(problem.sensors))
        assert abs(adjoint_source.sum()) > 0.1
        for rhs in (problem.b, z - z.mean(), adjoint_source):
            x = res.solve(rhs)
            ref = A_pinv @ rhs
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
            assert abs(x.mean()) <= 1e-12 * np.abs(x).max()

    def test_mesh_refinement_consistency(self):
        # observations of the same smooth analytic field converge under
        # refinement (nested meshes; the bump in true_field is discontinuous
        # and would spoil monotonicity)
        obs = {}
        for k in (8, 16, 48):
            mesh = elliptic.Mesh2D(k, k)
            problem = elliptic.make_problem(mesh)
            u = np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
            obs[k] = problem.O @ elliptic.assemble_and_solve(u, problem).p
        scale = np.abs(obs[48]).max()
        d_coarse = np.abs(obs[8] - obs[48]).max() / scale
        d_fine = np.abs(obs[16] - obs[48]).max() / scale
        assert d_fine < d_coarse
        assert d_fine < 0.05

    def test_conductivity_overflow_raises(self):
        mesh, problem, _ = small_problem(6)
        with pytest.raises(FloatingPointError, match="overflow"):
            elliptic.assemble_and_solve(np.full(problem.n, 1e4), problem)

    @pytest.mark.parametrize("nx, ny", [(6, 6), (7, 5)])
    def test_isolated_node_is_a_singular_factorization(self, nx, ny):
        # exp(-800) underflows to 0, so every face transmissivity of that
        # interior node is 0: its stiffness row vanishes and the grounded
        # factorization must fail as a FloatingPointError (a rejected state)
        mesh = elliptic.Mesh2D(nx, ny)
        problem = elliptic.make_problem(mesh)
        u = np.zeros(problem.n)
        u[mesh.node_index(nx // 2, ny // 2)] = -800.0
        with pytest.raises(FloatingPointError, match="singular stiffness"):
            elliptic.assemble_and_solve(u, problem)


class TestData:
    def test_noise_level_definition(self):
        mesh, problem, u_true = small_problem(8, snr=10.0)
        assert problem.sigma_eta == pytest.approx(np.max(u_true) / 10.0)

    def test_reproducible(self):
        _, p1, _ = small_problem(8, seed=7)
        _, p2, _ = small_problem(8, seed=7)
        _, p3, _ = small_problem(8, seed=8)
        assert np.array_equal(p1.y, p2.y)
        assert not np.array_equal(p1.y, p3.y)

    def test_noiseless(self):
        # snr = inf switches the likelihood off: a flat target, not a
        # ZeroDivisionError that the chain would not catch
        mesh = elliptic.Mesh2D(6, 6)
        problem = elliptic.make_problem(mesh)
        u_true = elliptic.true_field(mesh)
        y = elliptic.generate_data(u_true, problem, float("inf"), 0)
        assert problem.sigma_eta == float("inf")
        state = elliptic.assemble_and_solve(u_true, problem)
        assert np.array_equal(y, problem.O @ state.p)
        u = 0.3 * np.random.default_rng(0).standard_normal(problem.n)
        for state in (state, elliptic.assemble_and_solve(u, problem)):
            assert state.phi == 0.0
            assert not state.grad.any()

    @pytest.mark.parametrize("snr", [0.0, -1.0, float("-inf"), float("nan")])
    def test_non_positive_snr_is_refused(self, snr):
        mesh = elliptic.Mesh2D(6, 6)
        problem = elliptic.make_problem(mesh)
        with pytest.raises(ValueError, match="snr must be positive"):
            elliptic.generate_data(elliptic.true_field(mesh), problem, snr, 0)

    def test_attach_data_validation(self):
        # a length-1 y would broadcast into a wrong phi, a nan sigma into a nan one
        mesh, problem, _ = small_problem(6)
        y, sigma = problem.y, problem.sigma_eta
        for bad_y, bad_sigma, match in ((y, 0.0, "sigma_eta"),
                                        (y, float("nan"), "sigma_eta"),
                                        (y[:1], sigma, "one reading per sensor"),
                                        (y[:-1], sigma, "one reading per sensor"),
                                        (y[:, None], sigma, "one reading per sensor")):
            with pytest.raises(ValueError, match=match):
                elliptic.attach_data(problem, bad_y, bad_sigma)
            assert problem.y is y and problem.sigma_eta == sigma


class TestAdjointCalculus:
    def test_gradient_matches_central_differences(self):
        for k, directions in ((8, 10), (16, 20)):
            mesh, problem, _ = small_problem(k)
            rng = np.random.default_rng(1)
            u = 0.3 * rng.standard_normal(problem.n)
            g = elliptic.assemble_and_solve(u, problem).grad
            t = 1e-5
            worst = 0.0
            for _ in range(directions):
                w = rng.standard_normal(problem.n)
                w /= np.linalg.norm(w)
                fd = (elliptic.assemble_and_solve(u + t * w, problem).phi
                      - elliptic.assemble_and_solve(u - t * w, problem).phi) / (2 * t)
                worst = max(worst, abs(fd - g @ w) / max(abs(fd), 1e-12))
            assert worst < 1e-4, f"{k}x{k}: relative error {worst:.2e}"

    def test_gnh_matches_fd_jacobian(self):
        # dense oracle: J columns by central differences of the observation
        # map, then H w = J^T Sigma^{-1} J w
        mesh = elliptic.Mesh2D(5, 5)
        problem = elliptic.make_problem(mesh)
        u_true = elliptic.true_field(mesh)
        elliptic.generate_data(u_true, problem, 10.0, 0)
        rng = np.random.default_rng(2)
        u = 0.2 * rng.standard_normal(problem.n)

        def gobs(uu):
            return problem.O @ elliptic.assemble_and_solve(uu, problem).p

        t = 1e-5
        J = np.zeros((len(problem.sensors), problem.n))
        for k in range(problem.n):
            e = np.zeros(problem.n)
            e[k] = t
            J[:, k] = (gobs(u + e) - gobs(u - e)) / (2 * t)
        H_dense = J.T @ J / problem.sigma_eta ** 2
        state = elliptic.assemble_and_solve(u, problem)
        for _ in range(5):
            w = rng.standard_normal(problem.n)
            hw = elliptic.gnh_action(state, w)
            assert np.allclose(hw, H_dense @ w, rtol=2e-4, atol=1e-7 * np.abs(H_dense @ w).max())

    def test_gnh_symmetric_psd_rank_bounded(self):
        for k in (10, 16):
            mesh, problem, u_true = small_problem(k)
            rng = np.random.default_rng(3)
            u = 0.3 * rng.standard_normal(problem.n)
            res = elliptic.assemble_and_solve(u, problem)
            W = rng.standard_normal((problem.n, 8))
            HW = np.column_stack([elliptic.gnh_action(res, W[:, j]) for j in range(8)])
            G = W.T @ HW
            assert np.abs(G - G.T).max() < 1e-9 * max(np.abs(G).max(), 1.0)
            assert np.linalg.eigvalsh(0.5 * (G + G.T)).min() > -1e-10
            # GNH factors through 25 observations, so its rank cannot exceed 25
            H_dense = np.column_stack([elliptic.gnh_action(res, col)
                                       for col in np.eye(problem.n)])
            lam = np.linalg.eigvalsh(0.5 * (H_dense + H_dense.T))
            assert np.sum(lam > 1e-10 * lam.max()) <= 25

    def test_block_action_matches_columns(self):
        mesh, problem, _ = small_problem(10)
        rng = np.random.default_rng(4)
        u = 0.3 * rng.standard_normal(problem.n)
        res = elliptic.assemble_and_solve(u, problem)
        W = rng.standard_normal((problem.n, 7))
        cols = np.column_stack([elliptic.gnh_action(res, W[:, j]) for j in range(7)])
        block = elliptic.gnh_action(res, W)
        assert block.shape == W.shape
        assert np.abs(block - cols).max() <= 1e-12 * np.abs(cols).max()

    def test_incidence_scatters_match_add_at_reference(self):
        # the per-edge loop the sparse incidence products replace
        mesh, problem, _ = small_problem(7)
        rng = np.random.default_rng(6)
        u = 0.3 * rng.standard_normal(problem.n)
        res = elliptic.assemble_and_solve(u, problem)
        ea, eb = problem._ea, problem._eb

        def assemble_ref(q):
            s = res.dpe * (q[ea] - q[eb])
            g = np.zeros(problem.n)
            np.add.at(g, ea, -res.ca * s)
            np.add.at(g, eb, -res.cb * s)
            return g

        def gnh_ref(w):
            dt = res.ca * w[ea] + res.cb * w[eb]
            r = np.zeros(problem.n)
            np.add.at(r, ea, dt * res.dpe)
            np.add.at(r, eb, -dt * res.dpe)
            jw = problem.O @ res.solve(-r)
            return assemble_ref(res.solve(problem.O.T @ (jw / problem.sigma_eta ** 2)))

        q = rng.standard_normal(problem.n)
        ref = assemble_ref(q)
        got = elliptic._chain_rule_assemble(problem, res, q)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        w = rng.standard_normal(problem.n)
        ref = gnh_ref(w)
        got = elliptic.gnh_action(res, w)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSolveAccounting:
    def test_unit_costs(self):
        mesh, problem, _ = small_problem(6)
        problem.solves.count = 0
        state = elliptic.assemble_and_solve(np.zeros(problem.n), problem)
        assert problem.solves.count == 1  # construction costs one forward solve
        state.phi
        assert problem.solves.count == 1  # phi reads the forward solution
        state.phi
        assert problem.solves.count == 1  # cached
        state.grad
        assert problem.solves.count == 2  # one adjoint against the same factorization
        state.grad
        assert problem.solves.count == 2  # cached
        state.jac
        assert problem.solves.count == 2 + len(problem.sensors)  # one per sensor
        state.jac
        assert problem.solves.count == 2 + len(problem.sensors)  # cached

    def test_jacobian_costs_one_solve_per_sensor_once(self, monkeypatch):
        # a chain state's first curvature request forms J with one solve per
        # sensor; every later GNH block at that state is products with J
        model, extras = build_elliptic(RunConfig(model="elliptic", nx=6, ny=6))
        problem = extras["problem"]
        state = model.state(np.zeros(model.n))
        state.phi
        # the traced bench counts ForwardSolveResult.solve calls and requires
        # them to equal the counter's increments
        calls = []
        solve = elliptic.ForwardSolveResult.solve

        def counted(self, rhs):
            calls.append(np.shape(rhs))
            return solve(self, rhs)

        monkeypatch.setattr(elliptic.ForwardSolveResult, "solve", counted)
        m = len(problem.sensors)
        rng = np.random.default_rng(0)
        before = problem.solves.count
        state.gnh_action(rng.standard_normal((problem.n, 5)))
        assert problem.solves.count - before == m
        assert len(calls) == m
        assert set(calls) == {(problem.n,)}
        for w in (rng.standard_normal((problem.n, 7)), rng.standard_normal(problem.n)):
            state.gnh_action(w)
        elliptic.gnh_action(state.ustate, np.ones(problem.n))
        assert problem.solves.count - before == len(calls) == m

    def test_traced_names_are_looked_up_at_call_time(self, monkeypatch):
        # the traced bench wraps these three names after the model is built;
        # a factory or property that bound them early would hide every call
        # from its wrappers and silently zero the traced layers
        config = RunConfig(model="elliptic", nx=6, ny=6, algorithm="inf-mala",
                           iterations=20, burn_in=5, seed=1)
        model, extras = build_model(config)
        problem = extras["problem"]
        calls = {"assemble_and_solve": 0, "gradient": 0, "solve": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for owner, name in ((elliptic, "assemble_and_solve"), (elliptic, "gradient"),
                            (elliptic.ForwardSolveResult, "solve")):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        before = problem.solves.count
        record = run_from_config(config, model=model)
        assert calls["assemble_and_solve"] == calls["gradient"] == config.iterations + 1
        assert calls["solve"] == problem.solves.count - before == record.pde_solves[-1]
