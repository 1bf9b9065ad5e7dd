import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtplace.cli import ALPHA_GRID
from dtplace.cost_model import Decision, evaluate, per_dt_cost_table
from dtplace.exact import (
    scheme_average_distribution,
    scheme_cloud_only,
    scheme_random,
    solve_exact,
)
from dtplace.scenario import (
    DeviceSet,
    GeneratorConfig,
    PhysicalParams,
    Scenario,
    ServerPool,
    generate_random,
)

DESK = GeneratorConfig(num_devices=24, num_dts=6)


def brute_force(s):
    """Enumeration oracle: the first assignment, in lexicographic order, of least cost."""
    best = None
    for assignment in itertools.product(range(s.num_servers_total), repeat=s.num_dts):
        q = evaluate(s, Decision(assignment)).weighted_cost
        if best is None or q < best[1]:
            best = (assignment, q)
    return best


def symmetric_tie_scenario():
    """One device exactly between two identical edge servers, cloud tied too."""
    servers = ServerPool(
        edge_clock_speeds=(2.5, 2.5),
        cloud_clock_speed=2.5,
        edge_locations=((490.0, 400.0), (510.0, 400.0)),
        edge_exec_energy=0.125,
        cloud_exec_energy=0.125,
        edge_tx_energy=0.125,
        cloud_tx_energy=0.125,
    )
    devices = DeviceSet(
        workloads=(120.0,), locations=((500.0, 400.0),), bandwidths=(1000.0,), ownership=(0,)
    )
    # gamma 1 and lambda 10000 put the cloud rate and the 10 m edge rate both
    # at 1000 Mbps, so every placement costs the same.
    params = PhysicalParams(gamma=1.0, lambda_=10000.0, delta=1000.0, alpha=1.0)
    return Scenario(servers, devices, params, num_dts=1, num_servers_total=3)


class TestSolveExact:
    def test_single_dt_matches_manual_scan(self):
        s = generate_random(2, dataclasses.replace(DESK, num_devices=6, num_dts=1))
        result = solve_exact(s)
        manual = min(
            (evaluate(s, Decision((j,))).weighted_cost, j) for j in range(s.num_servers_total)
        )
        assert result.cost.weighted_cost == manual[0]
        assert result.decision.assignment == (manual[1],)

    def test_matches_brute_force_small(self):
        s = generate_random(4, GeneratorConfig(num_devices=10, num_dts=3))
        assignment, q = brute_force(s)
        result = solve_exact(s)
        assert result.decision.assignment == assignment
        assert result.cost.weighted_cost == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_matches_enumeration_across_alpha(self, alpha):
        for seed in range(3):
            s = generate_random(
                seed, GeneratorConfig(num_devices=12, num_dts=4, alpha=alpha)
            )
            assignment, q = brute_force(s)
            result = solve_exact(s)
            assert result.decision.assignment == assignment
            assert result.cost.weighted_cost == pytest.approx(q, rel=1e-12)

    def test_beats_random_sampling(self):
        s = generate_random(6, DESK)
        result = solve_exact(s)
        rng = np.random.default_rng(123)
        for _ in range(500):
            d = Decision(tuple(int(v) for v in rng.integers(0, s.num_servers_total, s.num_dts)))
            assert result.cost.weighted_cost <= evaluate(s, d).weighted_cost

    def test_symmetric_tie_takes_lowest_index(self):
        s = symmetric_tie_scenario()
        costs = [evaluate(s, Decision((j,))).weighted_cost for j in range(3)]
        assert costs[0] == costs[1] == costs[2]
        assert solve_exact(s).decision.assignment == (0,)

    def test_full_scale_is_table_argmin(self):
        # 4^15 assignments: no enumeration, but each twin's row of the table
        # still names its cheapest server and no baseline can do better.
        s = generate_random(1)
        result = solve_exact(s)
        table = per_dt_cost_table(s)
        assert result.decision.assignment == tuple(int(j) for j in table.argmin(axis=1))
        q = result.cost.weighted_cost
        assert q == pytest.approx(table.min(axis=1).sum(), rel=1e-12)
        assert q <= scheme_cloud_only(s).cost.weighted_cost
        assert q <= scheme_average_distribution(s).cost.weighted_cost
        assert q <= scheme_random(s, 3).cost.weighted_cost

    @given(seed=st.integers(0, 2**31))
    def test_no_scheme_beats_exact(self, seed):
        s = generate_random(seed, GeneratorConfig(num_devices=12, num_dts=4))
        q = solve_exact(s).cost.weighted_cost
        assert q <= scheme_cloud_only(s).cost.weighted_cost
        assert q <= scheme_average_distribution(s).cost.weighted_cost
        assert q <= scheme_random(s, seed + 7).cost.weighted_cost


class TestSchemeRandom:
    def test_deterministic_under_seed(self):
        s = generate_random(1, DESK)
        assert scheme_random(s, 42).decision == scheme_random(s, 42).decision

    def test_frequencies_roughly_uniform(self):
        s = generate_random(1, dataclasses.replace(DESK, num_devices=4, num_dts=2))
        counts = np.zeros((s.num_dts, s.num_servers_total))
        draws = 10_000
        for i in range(draws):
            for m, j in enumerate(scheme_random(s, i).decision.assignment):
                counts[m, j] += 1
        expected = draws / s.num_servers_total
        sigma = np.sqrt(draws * 0.25 * 0.75)
        assert (np.abs(counts - expected) <= 3 * sigma).all()

    def test_valid_assignment(self):
        s = generate_random(3, DESK)
        result = scheme_random(s, 9)
        assert all(0 <= j < s.num_servers_total for j in result.decision.assignment)
        assert result.scheme_name == "ro"


class TestSchemeCloudOnly:
    def test_everything_on_cloud(self):
        s = generate_random(1, DESK)
        result = scheme_cloud_only(s)
        assert result.decision.assignment == (s.num_servers_total - 1,) * s.num_dts
        assert result.scheme_name == "co"

    def test_energy_composes_per_device(self):
        s = generate_random(2, dataclasses.replace(DESK, num_devices=5, num_dts=2))
        result = scheme_cloud_only(s)
        pool, delta = s.servers, s.params.delta
        expected = sum(
            pool.cloud_tx_energy * w + pool.cloud_exec_energy * delta * w
            for w in s.devices.workloads
        )
        assert result.cost.total_energy == pytest.approx(expected, rel=1e-12)

    def test_edge_energy_differs(self):
        s = generate_random(2, dataclasses.replace(DESK, num_devices=5, num_dts=2))
        all_edge = evaluate(s, Decision((0,) * s.num_dts))
        pool, delta = s.servers, s.params.delta
        expected = sum(
            pool.edge_tx_energy * w + pool.edge_exec_energy * delta * w
            for w in s.devices.workloads
        )
        assert all_edge.total_energy == pytest.approx(expected, rel=1e-12)


def argmin_average_distribution(s):
    """The greedy on numpy arrays: ``np.add.at`` twin loads, ``np.argmin`` server choice."""
    dt_load = np.zeros(s.num_dts)
    np.add.at(dt_load, s.devices.ownership, s.devices.workloads)
    order = sorted(range(s.num_dts), key=lambda m: (-dt_load[m], m))
    server_load = np.zeros(s.num_servers_total)
    assignment = [0] * s.num_dts
    for m in order:
        target = int(np.argmin(server_load))
        assignment[m] = target
        server_load[target] += dt_load[m]
    return tuple(assignment)


def with_workloads(s, choices, seed):
    """``s`` with every device workload redrawn from ``choices``, so loads tie; ``None`` keeps them."""
    if choices is None:
        return s
    rng = np.random.default_rng(seed)
    workloads = tuple(float(w) for w in rng.choice(choices, size=s.devices.num_devices))
    return dataclasses.replace(s, devices=dataclasses.replace(s.devices, workloads=workloads))


class TestSchemeAverageDistribution:
    @pytest.mark.parametrize(
        "choices", [None, (80.0,), (80.0, 160.0), (0.1, 0.2, 0.3)], ids=["drawn", "one", "two", "thirds"]
    )
    def test_matches_argmin_greedy(self, choices):
        # the redrawn loads tie twins with twins and servers with servers at many steps
        for i, config in enumerate([DESK, GeneratorConfig(), GeneratorConfig(num_devices=9, num_dts=9)]):
            for j in range(10):
                s = with_workloads(generate_random(100 * i + j, config), choices, j)
                want = argmin_average_distribution(s)
                result = scheme_average_distribution(s)
                assert result.decision.assignment == want
                assert all(type(a) is int for a in result.decision.assignment)
                assert result.cost == evaluate(s, Decision(want))

    def test_equal_twins_fill_servers_in_index_order(self):
        s = with_workloads(generate_random(3, GeneratorConfig(num_devices=9, num_dts=9)), (80.0,), 0)
        # nine twins of one device and equal load, four servers: round robin from server 0
        assert scheme_average_distribution(s).decision.assignment == (0, 1, 2, 3, 0, 1, 2, 3, 0)

    def test_single_dt_takes_server_zero(self):
        s = generate_random(5, dataclasses.replace(DESK, num_devices=4, num_dts=1))
        assert scheme_average_distribution(s).decision.assignment == (0,)

    def test_equal_dts_spread_one_per_server(self):
        servers = ServerPool(
            edge_clock_speeds=(2.0, 2.0, 2.0),
            cloud_clock_speed=3.5,
            edge_locations=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
            edge_exec_energy=0.125,
            cloud_exec_energy=0.1,
            edge_tx_energy=0.125,
            cloud_tx_energy=0.15,
        )
        devices = DeviceSet(
            workloads=(50.0, 50.0, 50.0, 50.0),
            locations=((0.0, 1.0),) * 4,
            bandwidths=(1000.0,) * 4,
            ownership=(0, 1, 2, 3),
        )
        params = PhysicalParams(gamma=0.01, lambda_=2000.0, delta=2.0, alpha=0.5)
        s = Scenario(servers, devices, params, num_dts=4, num_servers_total=4)
        assignment = scheme_average_distribution(s).decision.assignment
        assert sorted(assignment) == [0, 1, 2, 3]

    @given(seed=st.integers(0, 2**31))
    def test_greedy_balance_bound(self, seed):
        s = generate_random(seed, DESK)
        assignment = scheme_average_distribution(s).decision.assignment
        w = np.asarray(s.devices.workloads)
        own = np.asarray(s.devices.ownership)
        dt_load = np.zeros(s.num_dts)
        np.add.at(dt_load, own, w)
        server_load = np.zeros(s.num_servers_total)
        for m, j in enumerate(assignment):
            server_load[j] += dt_load[m]
        assert server_load.max() - server_load.min() <= dt_load.max() + 1e-9

    def test_deterministic(self):
        s = generate_random(7, DESK)
        assert (
            scheme_average_distribution(s).decision
            == scheme_average_distribution(s).decision
        )
        assert scheme_average_distribution(s).scheme_name == "ad"
