import copy
import dataclasses
import gc
import math
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtplace import cost_model
from dtplace.cli import ALPHA_GRID
from dtplace.cost_model import (
    CostBreakdown,
    Decision,
    _device_matrices,
    _per_dt_time,
    _per_twin_sum,
    _pricing,
    evaluate,
    per_dt_cost_table,
)
from dtplace.errors import ContractError, ValidationError
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
    from_document,
    generate_random,
    to_document,
)

from _oracle import reference_cost

DESK = GeneratorConfig(num_devices=24, num_dts=6)
SHAPES = {
    "desk": DESK,
    "full": GeneratorConfig(),
}


def random_decision(s, seed):
    rng = np.random.default_rng(seed)
    return Decision(tuple(int(v) for v in rng.integers(0, s.num_servers_total, s.num_dts)))


def reference_parts(s, d):
    """Per-twin times and energies of one decision, gathered first and aggregated in 1-D.

    Each device's chosen column is gathered first and then reduced per twin
    in device order, the reverse of pricing every server first, so
    ``evaluate`` can be held to it bit for bit.
    """
    own = s.devices.ownership
    tx, ex, en = _device_matrices(s)
    rows, chosen = np.arange(own.size), np.asarray(d.assignment)[own]
    counts = np.bincount(own, minlength=s.num_dts).astype(float)
    sync = np.zeros(s.num_dts)
    np.maximum.at(sync, own, tx[rows, chosen])
    exec_sum = np.zeros(s.num_dts)
    np.add.at(exec_sum, own, ex[rows, chosen])
    energy = np.zeros(s.num_dts)
    np.add.at(energy, own, en[rows, chosen])
    return counts * (sync + exec_sum), energy


def reference_evaluate(s, d):
    """``evaluate`` as the gather-first path: sequential sums of :func:`reference_parts` in twin order."""
    dt_time, energy = reference_parts(s, d)
    total_time, total_energy = float(sum(dt_time.tolist())), float(sum(energy.tolist()))
    alpha = s.params.alpha
    return CostBreakdown(total_time, total_energy, float(alpha * total_time + (1.0 - alpha) * total_energy))


def device_order_energy(s, d):
    """Total energy as one sequential sum over the devices, in device order.

    A different order of the same additions, so it agrees with ``evaluate``
    to a few ulps, not bit for bit.
    """
    own = s.devices.ownership
    en = _device_matrices(s)[2]
    return float(sum(en[np.arange(own.size), np.asarray(d.assignment)[own]].tolist()))


def add_at_sums(own, num_dts, rows):
    """Per-twin sums of device rows by ``np.add.at``, one device at a time in device order."""
    out = np.zeros((num_dts, rows.shape[1]))
    np.add.at(out, own, rows)
    return out


def add_at_pricing(s):
    """Per-twin time and energy tables built with ``np.add.at``, the formula :func:`_pricing` keeps."""
    own = s.devices.ownership
    tx, ex, en = _device_matrices(s)
    counts = np.bincount(own, minlength=s.num_dts).astype(float)
    sync = np.zeros((s.num_dts, tx.shape[1]))
    np.maximum.at(sync, own, tx)
    return counts[:, None] * (sync + add_at_sums(own, s.num_dts, ex)), add_at_sums(own, s.num_dts, en)


def fancy_index_evaluate(s, d):
    """``evaluate`` gathering each table with a 2-D fancy index over ``np.arange`` rows."""
    assign = np.asarray(d.assignment, dtype=int)
    dt_time, dt_energy = _pricing(s)[:2]
    total_time = float(sum(dt_time[np.arange(s.num_dts), assign].tolist()))
    total_energy = float(sum(dt_energy[np.arange(s.num_dts), assign].tolist()))
    alpha = s.params.alpha
    return CostBreakdown(total_time, total_energy, float(alpha * total_time + (1.0 - alpha) * total_energy))


def count_builds(monkeypatch):
    """Record every scenario whose device matrices get built."""
    built = []
    monkeypatch.setattr(cost_model, "_device_matrices", lambda s: built.append(s) or _device_matrices(s))
    return built


def tiny_scenario(alpha=0.5):
    """One device feeding one DT, one edge server 100 m away."""
    servers = ServerPool(
        edge_clock_speeds=(2.0,),
        cloud_clock_speed=3.5,
        edge_locations=((100.0, 0.0),),
        edge_exec_energy=0.125,
        cloud_exec_energy=0.1,
        edge_tx_energy=0.125,
        cloud_tx_energy=0.15,
    )
    devices = DeviceSet(
        workloads=(80.0,),
        locations=((0.0, 0.0),),
        bandwidths=(1000.0,),
        ownership=(0,),
    )
    params = PhysicalParams(gamma=0.8, lambda_=10000.0, delta=1000.0, alpha=alpha)
    return Scenario(servers, devices, params, num_dts=1, num_servers_total=2)


def worked_scenario():
    """Three devices over two DTs and one edge server; checked by hand."""
    servers = ServerPool(
        edge_clock_speeds=(2.5,),
        cloud_clock_speed=3.5,
        edge_locations=((0.0, 0.0),),
        edge_exec_energy=0.125,
        cloud_exec_energy=0.1,
        edge_tx_energy=0.125,
        cloud_tx_energy=0.15,
    )
    devices = DeviceSet(
        workloads=(100.0, 200.0, 150.0),
        locations=((30.0, 40.0), (0.0, 2.0), (300.0, 400.0)),
        bandwidths=(1000.0, 1000.0, 1000.0),
        ownership=(0, 0, 1),
    )
    params = PhysicalParams(gamma=0.01, lambda_=2000.0, delta=2.0, alpha=0.5)
    return Scenario(servers, devices, params, num_dts=2, num_servers_total=2)


EDGE, CLOUD = 0, 1


def tiny_variant(*, servers=None, devices=None, params=None):
    """tiny_scenario with fields replaced.

    Keyword dicts replace fields of the matching scenario part; device
    fields take the single device's value, not a tuple.
    """
    s = tiny_scenario()
    return dataclasses.replace(
        s,
        servers=dataclasses.replace(s.servers, **(servers or {})),
        devices=dataclasses.replace(
            s.devices, **{k: (v,) for k, v in (devices or {}).items()}
        ),
        params=dataclasses.replace(s.params, **(params or {})),
    )


def device_costs(server, **fields):
    """(tx, exec, energy) of tiny_variant's one device hosted on ``server``."""
    tx, ex, en = _device_matrices(tiny_variant(**fields))
    return tx[0, server], ex[0, server], en[0, server]


def domain_violations(**fields):
    """Violations that loading tiny_variant's document reports.

    The cost model assumes its input domains; loading a document is where
    they are enforced.
    """
    with pytest.raises(ValidationError) as info:
        from_document(to_document(tiny_variant(**fields)))
    return info.value.violations


class TestCloudFormulas:
    def test_tx_unit_case(self):
        tx, _, _ = device_costs(CLOUD, devices={"workloads": 1000.0}, params={"gamma": 1.0})
        assert tx == 1.0

    def test_tx_discount_halves_rate(self):
        tx, _, _ = device_costs(CLOUD, devices={"workloads": 1000.0}, params={"gamma": 0.5})
        assert tx == 2.0

    def test_tx_hand_value(self):
        assert device_costs(CLOUD)[0] == pytest.approx(0.1, rel=1e-12)

    def test_tx_domain_errors(self):
        for fields, message in (
            ({"devices": {"workloads": 0.0}}, "non-positive workload"),
            ({"devices": {"bandwidths": -1.0}}, "non-positive bandwidth"),
            ({"params": {"gamma": 0.0}}, "gamma out of range"),
            ({"params": {"gamma": 1.5}}, "gamma out of range"),
        ):
            assert any(message in v for v in domain_violations(**fields)), fields

    def test_exec_unit_case(self):
        _, ex, _ = device_costs(CLOUD, devices={"workloads": 1.0}, params={"delta": 3.5e9})
        assert ex == 1.0

    def test_exec_linear_in_workload(self):
        one = device_costs(CLOUD, devices={"workloads": 1.0})[1]
        two = device_costs(CLOUD, devices={"workloads": 2.0})[1]
        assert two == 2 * one

    def test_exec_hand_value(self):
        assert device_costs(CLOUD)[1] == pytest.approx(80.0 * 1000.0 / 3.5e9, rel=1e-12)

    def test_energy_unit_case(self):
        _, _, en = device_costs(CLOUD, devices={"workloads": 1.0}, params={"delta": 1.0})
        assert en == pytest.approx(0.25, rel=1e-12)

    def test_energy_hand_value(self):
        assert device_costs(CLOUD)[2] == pytest.approx(8012.0, rel=1e-12)

    def test_energy_scales_linearly(self):
        double = device_costs(CLOUD, devices={"workloads": 160.0})[2]
        assert double == 2 * device_costs(CLOUD)[2]

    def test_energy_domain_error(self):
        violations = domain_violations(devices={"workloads": -1.0})
        assert any("non-positive workload" in v for v in violations)


class TestEdgeFormulas:
    def test_rate_hand_value(self):
        # 100 m from the edge server: rate 10000 / 100 = 100 units per second.
        assert device_costs(EDGE)[0] == 80.0 / 100.0

    def test_rate_halves_with_distance(self):
        near = device_costs(EDGE)[0]
        far = device_costs(EDGE, servers={"edge_locations": ((200.0, 0.0),)})[0]
        assert far == pytest.approx(2 * near, rel=1e-12)

    def test_rate_clamps_colocated_device(self):
        for location in ((100.0, 0.0), (100.0, 0.5)):
            tx, _, _ = device_costs(EDGE, devices={"locations": location})
            assert tx == 80.0 / 10000.0

    def test_tx_hand_value(self):
        assert device_costs(EDGE, devices={"workloads": 100.0})[0] == 1.0

    def test_tx_is_workload_over_rate(self):
        loc_n, loc_s = (3.0, 4.0), (120.0, 250.0)
        w, lam = 77.0, 12345.0
        tx, _, _ = device_costs(
            EDGE,
            servers={"edge_locations": (loc_s,)},
            devices={"workloads": w, "locations": loc_n},
            params={"lambda_": lam},
        )
        rate = lam / math.hypot(loc_n[0] - loc_s[0], loc_n[1] - loc_s[1])
        assert tx == pytest.approx(w / rate, rel=1e-12)

    def test_exec_matches_cloud_formula(self):
        same_clock = {"edge_clock_speeds": (2.2,), "cloud_clock_speed": 2.2}
        edge = device_costs(EDGE, servers=same_clock)[1]
        assert edge == device_costs(CLOUD, servers=same_clock)[1]

    def test_exec_clock_ratio(self):
        slow = device_costs(EDGE, servers={"edge_clock_speeds": (1.8,)})[1]
        fast = device_costs(EDGE, servers={"edge_clock_speeds": (3.0,)})[1]
        assert slow / fast == pytest.approx(3.0 / 1.8, rel=1e-12)

    def test_energy_hand_value(self):
        assert device_costs(EDGE)[2] == pytest.approx(10010.0, rel=1e-12)


class TestEvaluate:
    def test_single_cloud_device_composes_primitives(self):
        cost = evaluate(tiny_scenario(alpha=1.0), Decision((CLOUD,)))
        tx, ex = 0.1, 80.0 * 1000.0 / 3.5e9
        # a one-member twin syncs on its only upload and refreshes once
        assert cost.total_time == sum(device_costs(CLOUD)[:2])
        assert cost.total_time == pytest.approx(tx + ex, rel=1e-12)
        assert cost.weighted_cost == cost.total_time

    def test_single_edge_device_composes_primitives(self):
        cost = evaluate(tiny_scenario(alpha=0.0), Decision((EDGE,)))
        assert cost.total_time == pytest.approx(0.8 + 80.0 * 1000.0 / 2e9, rel=1e-12)
        assert cost.total_energy == pytest.approx(10010.0, rel=1e-12)
        assert cost.weighted_cost == cost.total_energy

    def test_worked_example_against_reference(self):
        s = worked_scenario()
        for assignment in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            cost = evaluate(s, Decision(assignment))
            t, e, q = reference_cost(s, assignment)
            assert cost.total_time == pytest.approx(t, rel=1e-9)
            assert cost.total_energy == pytest.approx(e, rel=1e-9)
            assert cost.weighted_cost == pytest.approx(q, rel=1e-9)

    def test_worked_example_frozen_value(self):
        # Hand tabulation for assignment (0, 1): DT0 edge (distances 50 and 2
        # clamped as-is), DT1 cloud; alpha 0.5.
        s = worked_scenario()
        cost = evaluate(s, Decision((0, 1)))
        dt0_sync = max(100.0 * 50.0 / 2000.0, 200.0 * 2.0 / 2000.0)
        dt0_exec = 2.0 * 100.0 / 2.5e9 + 2.0 * 200.0 / 2.5e9
        dt1_sync = 150.0 / (1000.0 * 0.01)
        dt1_exec = 2.0 * 150.0 / 3.5e9
        t = 2 * (dt0_sync + dt0_exec) + 1 * (dt1_sync + dt1_exec)
        e = (0.125 * 100.0 + 0.125 * 2.0 * 100.0) + (0.125 * 200.0 + 0.125 * 2.0 * 200.0) \
            + (0.15 * 150.0 + 0.1 * 2.0 * 150.0)
        assert cost.total_time == pytest.approx(t, rel=1e-9)
        assert cost.total_energy == pytest.approx(e, rel=1e-9)
        assert cost.weighted_cost == pytest.approx(0.5 * t + 0.5 * e, rel=1e-9)

    def test_reference_agreement_on_random_instances(self):
        for i in range(30):
            s = generate_random(i, DESK)
            d = random_decision(s, 1000 + i)
            cost = evaluate(s, d)
            t, e, q = reference_cost(s, d.assignment)
            assert cost.weighted_cost == pytest.approx(q, rel=1e-9)

    def test_alpha_endpoints_exact(self):
        s = generate_random(3, DESK)
        d = random_decision(s, 4)
        t_only = dataclasses.replace(s, params=dataclasses.replace(s.params, alpha=1.0))
        e_only = dataclasses.replace(s, params=dataclasses.replace(s.params, alpha=0.0))
        assert evaluate(t_only, d).weighted_cost == evaluate(t_only, d).total_time
        assert evaluate(e_only, d).weighted_cost == evaluate(e_only, d).total_energy

    def test_breakdown_holds_only_the_totals(self):
        names = [f.name for f in dataclasses.fields(CostBreakdown)]
        assert names == ["total_time", "total_energy", "weighted_cost"]

    def test_sync_time_is_member_max(self):
        s = generate_random(8, DESK)
        tx, _, _ = _device_matrices(s)
        # without execution time a twin's time is its member count times its slowest upload
        dt_time = _per_dt_time(s.devices.ownership, s.num_dts, tx, np.zeros_like(tx))
        for m in range(s.num_dts):
            members = [i for i, g in enumerate(s.devices.ownership) if g == m]
            for j in range(s.num_servers_total):
                assert dt_time[m, j] == len(members) * max(tx[i, j] for i in members)

    def test_wrong_length_rejected(self):
        s = generate_random(1, DESK)
        with pytest.raises(ContractError):
            evaluate(s, Decision((0,) * (s.num_dts + 1)))

    def test_out_of_range_server_rejected(self):
        s = generate_random(1, DESK)
        with pytest.raises(ContractError):
            evaluate(s, Decision((s.num_servers_total,) * s.num_dts))
        with pytest.raises(ContractError):
            evaluate(s, Decision((-1,) + (0,) * (s.num_dts - 1)))

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, np.True_, np.float64(2.0), "1", None])
    def test_non_integer_server_rejected(self, bad):
        # Truncating 1.7 to 1, or reading True as 1, would price another placement.
        s = generate_random(1, DESK)
        with pytest.raises(ContractError):
            evaluate(s, Decision((bad,) + (0,) * (s.num_dts - 1)))

    def test_numpy_integer_servers_accepted(self):
        s = generate_random(1, DESK)
        d = random_decision(s, 2)
        for kind in (np.int64, np.int32, np.uint8):
            assert evaluate(s, Decision(tuple(kind(j) for j in d.assignment))) == evaluate(s, d)


class TestPricing:
    """Each deployment is priced once, on its device set, for every alpha."""

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_matches_gather_first_evaluate_bit_for_bit(self, shape):
        for i in range(8):
            s0 = generate_random(500 + i, SHAPES[shape])
            for alpha in ALPHA_GRID:
                s = dataclasses.replace(s0, params=dataclasses.replace(s0.params, alpha=alpha))
                for j in range(3):
                    d = random_decision(s, 100 * i + j)
                    assert evaluate(s, d) == reference_evaluate(s, d)

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_energy_matches_the_device_order_sum_within_ulps(self, shape):
        # Adding per-twin subtotals in twin order regroups the device-order sum.
        for i in range(8):
            s = generate_random(520 + i, SHAPES[shape])
            for j in range(3):
                d = random_decision(s, 100 * i + j)
                assert evaluate(s, d).total_energy == pytest.approx(device_order_energy(s, d), rel=1e-14)

    def test_exact_and_schemes_build_the_matrices_once(self, monkeypatch):
        s = generate_random(41, DESK)
        built = count_builds(monkeypatch)
        solve_exact(s)
        scheme_random(s, 7)
        scheme_cloud_only(s)
        scheme_average_distribution(s)
        per_dt_cost_table(s)
        assert len(built) == 1 and built[0] is s

    def test_equal_but_distinct_scenarios_get_their_own_tables(self, monkeypatch):
        a = generate_random(42, DESK)
        b = from_document(to_document(a))
        c = dataclasses.replace(a, params=dataclasses.replace(a.params, alpha=1.0))
        assert a == b and a is not b and c.devices is a.devices
        built = count_builds(monkeypatch)
        d = random_decision(a, 3)
        tables = []
        for s in (a, b, a, c, b):
            tables.append(per_dt_cost_table(s))
            assert evaluate(s, d) == reference_evaluate(s, d)
        # the alpha re-weight c shares a's device set and so a's build
        assert [id(s) for s in built] == [id(a), id(b)]
        assert np.array_equal(tables[0], tables[1]) and np.array_equal(tables[0], tables[2])
        assert not np.array_equal(tables[0], tables[3])

    @pytest.mark.parametrize("change", ["servers", "gamma", "lambda_", "delta", "num_dts"])
    def test_changed_inputs_on_shared_devices_are_priced_again(self, monkeypatch, change):
        a = generate_random(44, DESK)
        if change == "servers":  # equal content, another object
            b = dataclasses.replace(a, servers=dataclasses.replace(a.servers))
        elif change == "num_dts":  # one more twin, left empty
            b = dataclasses.replace(a, num_dts=a.num_dts + 1)
        else:
            b = dataclasses.replace(a, params=dataclasses.replace(a.params, **{change: 2 * getattr(a.params, change)}))
        assert b.devices is a.devices
        built = count_builds(monkeypatch)
        for s in (a, b, a, b):
            table = per_dt_cost_table(s)
            d = random_decision(s, 5)
            cost = evaluate(s, d)
            # the oracle: the same scenario on a device set of its own, priced afresh
            fresh = dataclasses.replace(s, devices=dataclasses.replace(s.devices))
            assert np.array_equal(table, per_dt_cost_table(fresh))
            assert cost == evaluate(fresh, d)
        assert [id(s) for s in built if s.devices is a.devices] == [id(a), id(b), id(a), id(b)]

    def test_cached_tables_are_read_only(self):
        s = generate_random(45, DESK)
        per_dt_cost_table(s)
        dt_time, dt_energy, times, energies = cost_model._pricing(s)
        for table in (dt_time, dt_energy):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
        for view in (times, energies):
            assert view.readonly
            with pytest.raises(TypeError):
                view[0] = 0.0

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_pricing_holds_per_twin_tables_and_their_flat_views(self, shape):
        s = generate_random(47, SHAPES[shape])
        assert s.devices.num_devices > s.num_dts
        pricing = cost_model._pricing(s)
        for held in pricing:
            # one row per twin, none per device
            assert np.asarray(held).reshape(s.num_dts, -1).shape == (s.num_dts, s.num_servers_total)
        dt_time, dt_energy, times, energies = pricing
        for table, view in ((dt_time, times), (dt_energy, energies)):
            assert table.shape == (s.num_dts, s.num_servers_total)
            # the view is the table's own memory, row after row
            assert view.format == "d" and view.shape == (table.size,)
            assert np.shares_memory(np.asarray(view), table)
            assert view.tolist() == table.ravel().tolist()

    def test_narrow_numpy_servers_past_offset_255_are_not_wrapped(self):
        # 70 twins on 4 servers: the last rows start past 255, which uint8 cannot hold.
        s = generate_random(48, GeneratorConfig(num_devices=90, num_dts=70))
        d = random_decision(s, 9)
        for kind in (np.uint8, np.int8, np.int16):
            assert evaluate(s, Decision(tuple(kind(j) for j in d.assignment))) == evaluate(s, d)

    @pytest.mark.parametrize(
        "copier", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))], ids=["deepcopy", "pickle"]
    )
    def test_copies_leave_the_caches_behind(self, copier):
        s = generate_random(46, DESK)
        fresh = pickle.dumps(s)
        d = random_decision(s, 4)
        table, cost = per_dt_cost_table(s), evaluate(s, d)
        assert pickle.dumps(s) == fresh  # priced, it pickles to the same bytes
        copied = copier(s)
        assert copied == s
        for group in (copied.devices, copied.servers):
            assert set(vars(group)) == {f.name for f in dataclasses.fields(group)}
        assert np.array_equal(per_dt_cost_table(copied), table)
        assert evaluate(copied, d) == cost
        pool, dev = copied.servers, copied.devices
        arrays = (pool.edge_clock_speeds, pool.edge_locations, dev.workloads, dev.locations,
                  dev.bandwidths, dev.ownership)
        dt_time, dt_energy, times, energies = cost_model._pricing(copied)
        for array in (dt_time, dt_energy, *arrays):
            assert not array.flags.writeable
        assert times.readonly and energies.readonly

    def test_pricing_dies_with_its_group(self):
        s = generate_random(43, DESK)
        evaluate(s, random_decision(s, 1))
        refs = weakref.ref(s), weakref.ref(s.devices)
        del s
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_threads_match_serial(self):
        scenarios = [generate_random(600 + i, DESK) for i in range(6)]
        decisions = [random_decision(s, i) for i, s in enumerate(scenarios)]
        serial = [(evaluate(s, d), per_dt_cost_table(s).tobytes()) for s, d in zip(scenarios, decisions)]
        results = {}

        def work(t):
            # each thread walks the scenarios from its own offset, so they interleave
            order = [(t + i) % len(scenarios) for i in range(len(scenarios))] * 40
            results[t] = [
                (k, evaluate(scenarios[k], decisions[k]), per_dt_cost_table(scenarios[k]).tobytes())
                for k in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == 4
        for rows in results.values():
            assert len(rows) == 40 * len(scenarios)
            for k, cost, table in rows:
                assert (cost, table) == serial[k]


class TestBitForBit:
    """The one-call sums and gathers give the very bits of their per-element forms."""

    @pytest.mark.parametrize("seed", range(12))
    def test_per_twin_sum_matches_add_at(self, seed):
        rng = np.random.default_rng(seed)
        num_dts, cols = int(rng.integers(2, 16)), int(rng.integers(1, 6))
        # twin 0 owns exactly one device; the others share the rest, all shuffled
        extra = rng.integers(1, num_dts, size=int(rng.integers(0, 120)))
        own = rng.permutation(np.concatenate([np.arange(num_dts), extra]))
        assert np.count_nonzero(own == 0) == 1 and not np.all(np.diff(own) >= 0)
        # magnitudes spread over 16 decades, so the order of the additions shows in the bits
        rows = rng.standard_normal((own.size, cols)) * 10.0 ** rng.integers(-8, 8, size=(own.size, cols))
        got = _per_twin_sum(own, num_dts, rows)
        assert got.shape == (num_dts, cols)
        assert got.tobytes() == add_at_sums(own, num_dts, rows).tobytes()
        assert got[0].tobytes() == rows[own == 0][0].tobytes()

    def test_per_twin_sum_leaves_an_ownerless_twin_at_zero(self):
        own = np.array([2, 0, 2])
        rows = np.arange(6, dtype=float).reshape(3, 2)
        assert _per_twin_sum(own, 4, rows).tolist() == [[2.0, 3.0], [0.0, 0.0], [4.0, 6.0], [0.0, 0.0]]

    # "singles": six twins over seven devices, so five own a single device
    @pytest.mark.parametrize("config", [*SHAPES.values(), GeneratorConfig(num_devices=7, num_dts=6)],
                             ids=[*SHAPES, "singles"])
    def test_pricing_matches_add_at(self, config):
        for i in range(6):
            s = generate_random(700 + i, config)
            dt_time, dt_energy, times, energies = _pricing(s)
            want_time, want_energy = add_at_pricing(s)
            assert dt_time.tobytes() == want_time.tobytes()
            assert dt_energy.tobytes() == want_energy.tobytes()
            assert (times.tobytes(), energies.tobytes()) == (dt_time.tobytes(), dt_energy.tobytes())
            assert (dt_time.dtype, dt_energy.dtype) == (np.float64, np.float64)

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_evaluate_matches_fancy_index_gather(self, shape):
        for i in range(6):
            s0 = generate_random(800 + i, SHAPES[shape])
            for alpha in ALPHA_GRID:
                s = dataclasses.replace(s0, params=dataclasses.replace(s0.params, alpha=alpha))
                for j in range(4):
                    d = random_decision(s, 10 * i + j)
                    as_numpy = Decision(tuple(np.int64(a) for a in d.assignment))
                    mixed = Decision(tuple(np.int64(a) if k % 2 else a for k, a in enumerate(d.assignment)))
                    want = fancy_index_evaluate(s, d)
                    for decision in (d, as_numpy, mixed):
                        assert evaluate(s, decision) == want


class TestInvariances:
    @given(seed=st.integers(0, 2**31), dseed=st.integers(0, 2**31))
    def test_device_permutation_invariance(self, seed, dseed):
        s = generate_random(seed, DESK)
        d = random_decision(s, dseed)
        q0 = evaluate(s, d).weighted_cost
        rng = np.random.default_rng(dseed + 1)
        perm = rng.permutation(s.devices.num_devices)
        shuffled = dataclasses.replace(
            s,
            devices=DeviceSet(
                workloads=tuple(s.devices.workloads[i] for i in perm),
                locations=tuple(s.devices.locations[i] for i in perm),
                bandwidths=tuple(s.devices.bandwidths[i] for i in perm),
                ownership=tuple(s.devices.ownership[i] for i in perm),
            ),
        )
        q1 = evaluate(shuffled, d).weighted_cost
        assert q1 == pytest.approx(q0, rel=1e-12)

    @given(seed=st.integers(0, 2**31), c=st.floats(0.1, 10.0, allow_nan=False))
    def test_workload_scaling_scales_both_totals(self, seed, c):
        s = generate_random(seed, DESK)
        d = random_decision(s, seed + 1)
        base = evaluate(s, d)
        scaled_devices = dataclasses.replace(
            s.devices, workloads=tuple(c * w for w in s.devices.workloads)
        )
        scaled = evaluate(dataclasses.replace(s, devices=scaled_devices), d)
        assert scaled.total_time == pytest.approx(c * base.total_time, rel=1e-12)
        assert scaled.total_energy == pytest.approx(c * base.total_energy, rel=1e-12)

    @given(seed=st.integers(0, 2**31))
    def test_energy_independent_of_locations(self, seed):
        s = generate_random(seed, DESK)
        d = random_decision(s, seed + 1)
        base = evaluate(s, d).total_energy
        rng = np.random.default_rng(seed + 2)
        moved_devices = dataclasses.replace(
            s.devices,
            locations=tuple((float(x), float(y)) for x, y in rng.uniform(0, 500, (s.devices.num_devices, 2))),
        )
        moved = evaluate(dataclasses.replace(s, devices=moved_devices), d)
        assert moved.total_energy == base

    @given(seed=st.integers(0, 2**31), idx=st.integers(0, 23), bump=st.floats(1.0, 200.0))
    def test_growing_one_workload_never_lowers_cost(self, seed, idx, bump):
        s = generate_random(seed, DESK)
        d = random_decision(s, seed + 1)
        q0 = evaluate(s, d).weighted_cost
        workloads = list(s.devices.workloads)
        workloads[idx] += bump
        grown = dataclasses.replace(s, devices=dataclasses.replace(s.devices, workloads=tuple(workloads)))
        assert evaluate(grown, d).weighted_cost >= q0

    @given(seed=st.integers(0, 2**31), dseed=st.integers(0, 2**31), alpha=st.floats(0.0, 1.0))
    def test_cost_table_matches_evaluate(self, seed, dseed, alpha):
        s = generate_random(seed, dataclasses.replace(DESK, alpha=alpha))
        d = random_decision(s, dseed)
        table = per_dt_cost_table(s)
        cost = evaluate(s, d)
        dt_time, energy = reference_parts(s, d)
        a = s.params.alpha
        for m in range(s.num_dts):
            assert table[m, d.assignment[m]] == a * dt_time[m] + (1 - a) * energy[m]
        # evaluate's totals are sequential sums of the chosen per-twin cells, in twin order
        assert cost.total_time == sum(dt_time.tolist())
        assert cost.total_energy == sum(energy.tolist())
