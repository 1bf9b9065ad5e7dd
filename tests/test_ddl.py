import copy
import dataclasses
import itertools
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _models import from_layers, named_layers

from dtplace import ddl
from dtplace.cost_model import Decision, evaluate
from dtplace.ddl import (
    DdlEnsemble,
    ReplayDatabase,
    TrainConfig,
    best_of_k,
    bits_per_dt,
    build_ensemble,
    decode_codes,
    encode_decision,
    infer,
    load_ensemble,
    propose_batch,
    raw_group_input,
    save_ensemble,
    train,
)
from dtplace.errors import ContractError, InvalidConfigError, SlotCapacityError
from dtplace.neural import (
    BETA1,
    BETA2,
    EPS,
    LOSS_CLAMP,
    Activation,
    MlpArch,
    MlpModel,
    feed_forward,
)
from dtplace.scenario import DeviceSet, GeneratorConfig, generate_random

DESK = GeneratorConfig(num_devices=24, num_dts=6)


def reference_raw_input(s) -> np.ndarray:
    """The per-device loop that ``raw_group_input`` vectorizes."""
    out = np.zeros((s.num_dts, ddl.SLOTS, 4))
    dev = s.devices
    for dt in range(s.num_dts):
        members = [i for i, owner in enumerate(dev.ownership) if owner == dt]
        members.sort(key=lambda i: (dev.workloads[i], *dev.locations[i]))
        for slot, i in enumerate(members):
            x, y = dev.locations[i]
            out[dt, slot] = (
                dev.workloads[i] / ddl.WORKLOAD_SCALE,
                x / ddl.COORD_SCALE[0],
                y / ddl.COORD_SCALE[1],
                dev.bandwidths[i] / ddl.BANDWIDTH_SCALE,
            )
    return out.reshape(s.num_dts, ddl.INPUT_WIDTH)


def with_devices(s, num_dts, workloads, locations, bandwidths, ownership):
    devices = DeviceSet(tuple(workloads), tuple(locations), tuple(bandwidths), tuple(ownership))
    return dataclasses.replace(s, devices=devices, num_dts=num_dts)


def desk_config(**kw) -> TrainConfig:
    kw.setdefault("generator", DESK)
    kw.setdefault("iterations", 0)
    return TrainConfig(**kw)


class TestCodes:
    def test_bits_per_dt(self):
        assert bits_per_dt(1) == 1
        assert bits_per_dt(2) == 1
        assert bits_per_dt(3) == 2
        assert bits_per_dt(4) == 2
        assert bits_per_dt(5) == 3
        with pytest.raises(ContractError):
            bits_per_dt(0)

    def test_decode_thresholds_at_half(self):
        # Two DTs, four servers: big-endian pairs (0.9, 0.9) -> 3, (0.1, 0.9) -> 1.
        out = np.array([[0.9, 0.9, 0.1, 0.9]])
        assert decode_codes(out, 2, 4).tolist() == [[3, 1]]

    def test_decode_all_low_is_server_zero(self):
        assert decode_codes(np.full((1, 6), 0.1), 3, 4).tolist() == [[0, 0, 0]]

    def test_decode_wraps_modulo(self):
        # Code 3 with only 3 servers wraps to 0.
        out = np.array([[0.9, 0.9]])
        assert decode_codes(out, 1, 3).tolist() == [[0]]

    def test_decode_batch_shape(self):
        out = np.array([[0.9, 0.1, 0.1, 0.9], [0.1, 0.1, 0.9, 0.9]])
        codes = decode_codes(out, 2, 4)
        assert codes.shape == (2, 2)
        assert codes.tolist() == [[2, 1], [0, 3]]

    def test_decode_width_mismatch(self):
        # a single output vector, even of the right width, is not a batch
        for bad in (np.zeros((1, 5)), np.zeros(5), np.zeros(4), np.zeros((1, 1, 4))):
            with pytest.raises(ContractError):
                decode_codes(bad, 2, 4)

    def test_encode_examples(self):
        target = encode_decision(Decision((3, 0, 2)), 4)
        assert target.tolist() == [1.0, 1.0, 0.0, 0.0, 1.0, 0.0]

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            encode_decision(Decision((4,)), 4)

    @given(st.integers(1, 6), st.integers(2, 8), st.integers(0, 2 ** 32))
    def test_encode_decode_round_trip(self, m, num_servers, seed):
        rng = np.random.default_rng(seed)
        d = Decision(tuple(int(v) for v in rng.integers(0, num_servers, size=m)))
        target = encode_decision(d, num_servers)
        codes = decode_codes(target[None], m, num_servers)[0]
        assert tuple(codes.tolist()) == d.assignment
        # the per-bit loop that encode_decision vectorizes
        bits = bits_per_dt(num_servers)
        expansion = [float((v >> (bits - 1 - j)) & 1) for v in d.assignment for j in range(bits)]
        assert target.dtype == np.float64 and target.tolist() == expansion


class TestRawInput:
    def test_shape_and_padding(self):
        s = generate_random(3, DESK)
        raw = raw_group_input(s)
        assert raw.shape == (6, ddl.INPUT_WIDTH)
        counts = np.bincount(s.devices.ownership, minlength=6)
        for dt in range(6):
            # bandwidth column marks occupied slots
            occupancy = raw[dt, 3::4] > 0
            assert occupancy.sum() == counts[dt]
            assert not raw[dt, 4 * counts[dt]:].any()

    def test_values_normalized(self):
        # The scales are the generator's bounds: every entry lies in [0, 1], and
        # an occupied slot's bandwidth column is exactly 1.
        for config, seed in itertools.product((DESK, GeneratorConfig()), range(5)):
            s = generate_random(seed, config)
            rows = raw_group_input(s).reshape(s.num_dts, ddl.SLOTS, 4)
            assert (rows >= 0).all() and (rows <= 1).all()
            occupied = np.arange(ddl.SLOTS) < np.bincount(s.devices.ownership)[:, None]
            assert (rows[occupied][:, 3] == 1).all()
            assert not rows[~occupied].any()

    def test_device_order_irrelevant(self):
        s = generate_random(5, DESK)
        perm = np.random.default_rng(0).permutation(s.devices.num_devices)
        shuffled = dataclasses.replace(
            s,
            devices=dataclasses.replace(
                s.devices,
                workloads=tuple(s.devices.workloads[i] for i in perm),
                locations=tuple(s.devices.locations[i] for i in perm),
                bandwidths=tuple(s.devices.bandwidths[i] for i in perm),
                ownership=tuple(s.devices.ownership[i] for i in perm),
            ),
        )
        assert np.array_equal(
            raw_group_input(s),
            raw_group_input(shuffled),
        )

    @pytest.mark.parametrize(
        "config",
        [DESK, GeneratorConfig()],
        ids=["desk", "full"],
    )
    def test_matches_the_per_device_loop(self, config):
        for seed in range(5):
            s = generate_random(seed, config)
            assert np.array_equal(raw_group_input(s), reference_raw_input(s))

    def test_workload_ties_break_by_x_then_y_then_device_order(self):
        # Devices 1, 2 and 4 share a workload; 1, 2 and 4 also share x, and
        # 1 and 4 are identical but for bandwidth.
        s = with_devices(
            generate_random(1, DESK), 1,
            workloads=(100.0, 100.0, 100.0, 50.0, 100.0),
            locations=((300.0, 10.0), (200.0, 40.0), (200.0, 20.0), (900.0, 5.0), (200.0, 40.0)),
            bandwidths=(1000.0, 1000.0, 1000.0, 1000.0, 500.0),
            ownership=(0, 0, 0, 0, 0),
        )
        dev = s.devices
        expected = [
            (dev.workloads[i] / ddl.WORKLOAD_SCALE, dev.locations[i][0] / ddl.COORD_SCALE[0],
             dev.locations[i][1] / ddl.COORD_SCALE[1], dev.bandwidths[i] / ddl.BANDWIDTH_SCALE)
            for i in (3, 2, 1, 4, 0)
        ]
        rows = raw_group_input(s).reshape(ddl.SLOTS, 4)
        assert np.array_equal(rows[:5], expected)
        assert not rows[5:].any()

    def test_overflow_names_the_lowest_over_full_dt_and_its_count(self):
        # Twin 0 fits; twins 1 and 2 both overflow the slots.
        ownership = [0] + [1] * 26 + [2] * 30
        n = len(ownership)
        s = with_devices(
            generate_random(1, DESK), 3,
            workloads=[100.0] * n, locations=[(1.0, 1.0)] * n, bandwidths=[1000.0] * n,
            ownership=ownership[::-1],
        )
        with pytest.raises(SlotCapacityError, match=f"DT 1 owns 26 devices but the encoding has {ddl.SLOTS} slots"):
            raw_group_input(s)

    def test_overflow_names_the_dt(self):
        # 60 devices over 2 twins: by pigeonhole one twin owns at least 30,
        # more than the encoding's slots.
        s = generate_random(3, GeneratorConfig(num_devices=60, num_dts=2))
        assert np.bincount(s.devices.ownership).max() > ddl.SLOTS
        with pytest.raises(SlotCapacityError, match="DT "):
            raw_group_input(s)


class TestEnsemble:
    def test_shapes_match_generator(self):
        ens = build_ensemble(desk_config())
        assert ens.num_dts == 6
        assert ens.num_servers == 4
        assert ens.num_dnns == 12
        assert ens.extractor.arch.sizes == (ddl.INPUT_WIDTH, *ddl.EMBEDDING_SIZES)
        assert ens.dnns[0].arch.sizes == (6 * ddl.EMBEDDING_SIZES[-1], 128, 64, 6 * 2)

    def test_seed_prefix_chain(self):
        small = build_ensemble(desk_config(num_dnns=3, seed=9))
        large = build_ensemble(desk_config(num_dnns=8, seed=9))
        assert np.array_equal(small.extractor.weights[0], large.extractor.weights[0])
        for k in range(3):
            assert np.array_equal(small.dnns[k].weights[0], large.dnns[k].weights[0])
        assert not np.array_equal(large.dnns[3].weights[0], large.dnns[4].weights[0])

    def test_proposals_are_valid_placements(self):
        ens = build_ensemble(desk_config(seed=2))
        s = generate_random(10, DESK)
        raw = raw_group_input(s)
        codes = propose_batch(ens, raw[None])
        assert codes.shape == (12, 1, 6)
        assert ((codes >= 0) & (codes < 4)).all()

    def test_propose_rejects_wrong_shape(self):
        ens = build_ensemble(desk_config())
        shapes = [(1, 5, ddl.INPUT_WIDTH), (ddl.INPUT_WIDTH,), (1, 1, 6, ddl.INPUT_WIDTH),
                  (6, ddl.INPUT_WIDTH)]  # one scenario's rows, not a batch of one
        for shape in shapes:
            with pytest.raises(ContractError):
                propose_batch(ens, np.zeros(shape))

    def test_best_of_k_matches_per_candidate_evaluation(self):
        ens = build_ensemble(desk_config(seed=3))
        s = generate_random(11, DESK)
        choice = best_of_k(ens, s)
        raw = raw_group_input(s)
        codes = propose_batch(ens, raw[None])[:, 0, :]
        costs = [
            evaluate(s, Decision(tuple(int(c) for c in row))).weighted_cost
            for row in codes
        ]
        assert choice.cost == pytest.approx(min(costs), rel=1e-9)
        assert choice.dnn_index == int(np.argmin(costs))
        assert choice.decision.assignment == tuple(int(c) for c in codes[choice.dnn_index])

    def test_best_of_k_prefers_planted_good_network(self):
        # Copy one trained-by-hand candidate: bias a single network's output
        # toward the exhaustive optimum and the ensemble must pick it.
        from dtplace.exact import solve_exact

        ens = build_ensemble(desk_config(num_dnns=4, seed=4))
        s = generate_random(12, DESK)
        best = solve_exact(s)
        target = encode_decision(best.decision, ens.num_servers)
        planted = ens.dnns[2]
        planted.weights[-1][:] = 0.0
        planted.biases[-1][:] = np.where(target > 0.5, 30.0, -30.0)
        choice = best_of_k(ens, s)
        assert choice.decision == best.decision
        assert choice.dnn_index == 2

    def test_best_of_k_shape_mismatch(self):
        ens = build_ensemble(desk_config())
        s = generate_random(1, dataclasses.replace(DESK, num_dts=5))
        with pytest.raises(ContractError):
            best_of_k(ens, s)

    def test_choose_on_a_batch_of_one_is_best_of_k(self):
        for seed in range(4):
            ens = build_ensemble(desk_config(num_dnns=5, seed=seed))
            s = generate_random(20 + seed, DESK)
            table, raw = ddl.per_dt_cost_table(s)[None], raw_group_input(s)[None]
            winner, codes, cost = ddl.choose(ens, table, raw)
            choice = best_of_k(ens, s)
            assert (winner.shape, codes.shape, cost.shape) == ((1,), (1, 6), (1,))
            assert int(winner[0]) == choice.dnn_index
            assert choice.decision == Decision(tuple(codes[0].tolist()))
            assert all(type(j) is int for j in choice.decision.assignment)
            assert cost[0] == pytest.approx(choice.cost, rel=1e-12)

    @pytest.mark.parametrize("change", ["num_dts", "num_edge_servers"])
    def test_choose_refuses_tables_of_another_shape(self, change):
        # either ensemble proposes and gathers from these tables without an
        # error, so only the shape check stands between it and a silent price
        ens = build_ensemble(desk_config(generator=dataclasses.replace(DESK, **{change: 2})))
        s = generate_random(3, DESK)
        raw = np.zeros((1, ens.num_dts, ddl.INPUT_WIDTH))
        with pytest.raises(ContractError, match="cost tables"):
            ddl.choose(ens, ddl.per_dt_cost_table(s)[None], raw)

    def test_choose_refuses_a_raw_batch_of_another_count(self):
        ens = build_ensemble(desk_config(num_dnns=3))
        scenarios = [generate_random(seed, DESK) for seed in (4, 5)]
        tables = np.stack([ddl.per_dt_cost_table(s) for s in scenarios])
        raw = raw_group_input(scenarios[0])[None]  # one row would broadcast over both tables
        with pytest.raises(ContractError, match="raw batch"):
            ddl.choose(ens, tables, raw)

    def test_more_networks_never_hurt(self):
        # Same seed means the first K networks coincide, so the minimum over
        # a longer prefix cannot increase.
        s = generate_random(13, DESK)
        costs = []
        for k in (1, 4, 12):
            ens = build_ensemble(desk_config(num_dnns=k, seed=6))
            costs.append(best_of_k(ens, s).cost)
        assert costs[1] <= costs[0]
        assert costs[2] <= costs[1]

    def test_infer_returns_consistent_result(self):
        ens = build_ensemble(desk_config(seed=7))
        s = generate_random(14, DESK)
        result = infer(ens, s)
        assert result.scheme_name == "ddl"
        assert result.cost.weighted_cost == pytest.approx(
            evaluate(s, result.decision).weighted_cost
        )
        assert result.elapsed > 0

    @staticmethod
    def count_evaluations(monkeypatch) -> list:
        calls = []

        def counted(s, d):
            calls.append(d)
            return evaluate(s, d)

        monkeypatch.setattr(ddl, "evaluate", counted)
        return calls

    def test_infer_evaluates_only_the_winner(self, monkeypatch):
        ens = build_ensemble(desk_config(seed=7))
        calls = self.count_evaluations(monkeypatch)
        for seed in range(14, 19):
            result = infer(ens, generate_random(seed, DESK))
            assert calls[-1] == result.decision
        assert len(calls) == 5

    def test_training_evaluates_once_per_iteration(self, monkeypatch):
        calls = self.count_evaluations(monkeypatch)
        train(desk_config(iterations=12, db_capacity=8, batch_size=4, num_dnns=4, seed=2))
        assert len(calls) == 12


def sampleable(db) -> set:
    """First state values a large seeded sample draws: the entries still stored."""
    states, targets = db.sample(np.random.default_rng(0), 2000)
    assert np.array_equal(states[:, 0], targets[:, 0])  # pairs stay together
    return set(states[:, 0].tolist())


class TestReplayDatabase:
    def test_fifo_eviction(self):
        db = ReplayDatabase(4, state_shape=(2,), target_width=1)
        for i in range(7):
            db.insert(np.array([i, i]), np.array([float(i)]))
        assert len(db) == 4
        assert db.full
        assert sampleable(db) == {3.0, 4.0, 5.0, 6.0}  # the three oldest are evicted

    def test_not_full_keeps_insertion_order(self):
        db = ReplayDatabase(10, state_shape=(1,), target_width=1)
        for i in range(3):
            db.insert(np.array([i]), np.array([float(i)]))
        assert not db.full
        assert sampleable(db) == {0.0, 1.0, 2.0}

    def test_sample_draws_only_stored_entries(self):
        db = ReplayDatabase(8, state_shape=(1,), target_width=1)
        for i in range(5):
            db.insert(np.array([i]), np.array([float(i)]))
        states, targets = db.sample(np.random.default_rng(0), 64)
        assert states.shape == (64, 1)
        assert set(targets.ravel().tolist()) <= {0.0, 1.0, 2.0, 3.0, 4.0}

    def test_sample_empty_rejected(self):
        db = ReplayDatabase(4, state_shape=(1,), target_width=1)
        with pytest.raises(ContractError):
            db.sample(np.random.default_rng(0), 1)

    def test_insert_shape_checked(self):
        db = ReplayDatabase(4, state_shape=(2,), target_width=1)
        with pytest.raises(ContractError):
            db.insert(np.zeros(3), np.zeros(1))

    @given(st.integers(1, 20), st.integers(1, 60))
    @settings(max_examples=20)
    def test_count_never_exceeds_capacity(self, capacity, inserts):
        db = ReplayDatabase(capacity, state_shape=(1,), target_width=1)
        for i in range(inserts):
            db.insert(np.array([i]), np.array([float(i)]))
        assert len(db) == min(capacity, inserts)
        # the survivors are the newest min(capacity, inserts) inserts
        assert sampleable(db) == set(range(max(0, inserts - capacity), inserts))


class TestTrain:
    def test_non_positive_iterations_rejected(self):
        with pytest.raises(InvalidConfigError, match="iterations"):
            train(desk_config(iterations=-1))

    def test_zero_iterations_return_the_fresh_ensemble(self):
        cfg = desk_config(iterations=0, num_dnns=3, seed=4)
        seen = []
        result = train(cfg, callback=lambda done, ens: seen.append(done))
        assert result.traces == []
        assert seen == [0]
        fresh = build_ensemble(cfg)
        for got, want in zip([result.ensemble.extractor, *result.ensemble.dnns],
                             [fresh.extractor, *fresh.dnns]):
            for name in ("weights", "biases"):
                for a, b in zip(getattr(got, name), getattr(want, name)):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.0, -1e-3, float("nan"), float("inf")])
    def test_learning_rate_that_is_not_positive_and_finite_rejected(self, rate):
        with pytest.raises(InvalidConfigError, match="learning_rate"):
            train(desk_config(iterations=1, learning_rate=rate))

    def test_batch_larger_than_database_rejected(self):
        with pytest.raises(InvalidConfigError):
            train(desk_config(iterations=1, db_capacity=8, batch_size=9))

    def test_losses_nan_until_database_fills(self):
        cfg = desk_config(iterations=12, db_capacity=8, batch_size=4, num_dnns=3, seed=2)
        result = train(cfg)
        assert len(result.traces) == 12
        for t in result.traces[:7]:
            assert all(math.isnan(x) for x in t.losses)
        for t in result.traces[7:]:
            assert all(math.isfinite(x) for x in t.losses)
            assert len(t.losses) == 3

    def test_trace_costs_match_evaluator_scale(self):
        cfg = desk_config(iterations=5, db_capacity=8, batch_size=4, num_dnns=2, seed=3)
        result = train(cfg)
        for t in result.traces:
            assert t.chosen_q > 0
            assert 0 <= t.chosen_dnn < 2

    def test_deterministic(self):
        cfg = desk_config(iterations=20, db_capacity=10, batch_size=6, num_dnns=3, seed=4)
        a = train(cfg)
        b = train(cfg)
        assert len(a.traces) == len(b.traces)
        for ta, tb in zip(a.traces, b.traces):
            assert (ta.iteration, ta.chosen_q, ta.chosen_dnn) == (tb.iteration, tb.chosen_q, tb.chosen_dnn)
            # losses are NaN before the database fills, so compare elementwise
            assert np.array_equal(ta.losses, tb.losses, equal_nan=True)
        for i in range(a.ensemble.extractor.num_layers):
            assert np.array_equal(a.ensemble.extractor.weights[i], b.ensemble.extractor.weights[i])
        for da, db_ in zip(a.ensemble.dnns, b.ensemble.dnns):
            for i in range(da.num_layers):
                assert np.array_equal(da.weights[i], db_.weights[i])

    def test_seed_changes_outcome(self):
        cfg = desk_config(iterations=15, db_capacity=10, batch_size=6, num_dnns=3)
        a = train(dataclasses.replace(cfg, seed=1))
        b = train(dataclasses.replace(cfg, seed=2))
        assert [t.chosen_q for t in a.traces] != [t.chosen_q for t in b.traces]

    def test_callback_sees_every_iteration(self):
        seen = []
        cfg = desk_config(iterations=6, db_capacity=4, batch_size=2, num_dnns=2, seed=5)
        train(cfg, callback=lambda done, ens: seen.append(done))
        assert seen == list(range(7))

    def test_updates_change_weights_only_after_fill(self):
        cfg = desk_config(iterations=3, db_capacity=8, batch_size=4, num_dnns=2, seed=6)
        result = train(cfg)
        fresh = build_ensemble(cfg)
        # database never filled: weights must equal the fresh initialization
        assert np.array_equal(result.ensemble.dnns[0].weights[0], fresh.dnns[0].weights[0])
        cfg2 = dataclasses.replace(cfg, iterations=10)
        trained = train(cfg2)
        assert not np.array_equal(trained.ensemble.dnns[0].weights[0], fresh.dnns[0].weights[0])

    def test_learning_stays_state_dependent_while_improving(self):
        # Self-labeling must lift the networks without washing out their
        # input sensitivity.  A degenerate run that proposes one decision
        # for every scenario can still look fine on mean improvement, so
        # the guards here are: per-network mean drops clearly, best-of-K
        # improves, best-of-K beats the best single fixed assignment (which
        # no input-blind proposer can), and the chosen placements stay
        # diverse across scenarios.
        from dtplace.cost_model import per_dt_cost_table

        gen = dataclasses.replace(DESK, server_seed=20260816)
        cfg = TrainConfig(iterations=2000, generator=gen, seed=7)
        probes = [generate_random(40_000 + i, gen) for i in range(64)]
        tables = np.stack([per_dt_cost_table(s) for s in probes])
        raws = np.stack([raw_group_input(s) for s in probes])
        b_idx = np.arange(len(probes))[:, None, None]
        m_idx = np.arange(6)[None, :, None]

        def probe_stats(ens):
            codes = propose_batch(ens, raws)
            per = tables[b_idx, m_idx, codes.transpose(1, 2, 0)].sum(axis=1)
            chosen = codes[per.argmin(axis=1), np.arange(len(probes))]
            return per.min(axis=1).mean(), per.mean(), {tuple(d) for d in chosen}

        before_best, before_mean, _ = probe_stats(build_ensemble(cfg))
        after_best, after_mean, after_distinct = probe_stats(train(cfg).ensemble)
        best_fixed = tables.mean(axis=0).min(axis=1).sum()
        assert after_mean < 0.98 * before_mean
        assert after_best < before_best
        assert after_best < best_fixed
        assert len(after_distinct) >= 16


class ReferenceNet:
    """Per-array network state and arithmetic, as kept before the flat buffers.

    One parameter and two moment arrays per weight and per bias, stepped
    one array at a time; every backward pass runs its own forward pass,
    keeps its pre-activations and computes the gradient on its input.  The
    activations and their derivatives are spelled out here, so the oracle
    shares no arithmetic with ``neural``.
    """

    def __init__(self, model, learning_rate):
        self.acts = model.arch.activations
        self.learning_rate = learning_rate
        self.w = [w.copy() for w in model.weights]
        self.b = [b.copy() for b in model.biases]
        self.mw, self.vw = [np.zeros_like(w) for w in self.w], [np.zeros_like(w) for w in self.w]
        self.mb, self.vb = [np.zeros_like(b) for b in self.b], [np.zeros_like(b) for b in self.b]
        self.step = 0

    @staticmethod
    def apply(act, z):
        if act is Activation.RELU:
            return np.maximum(z, 0.0)
        if act is Activation.SIGMOID:
            with np.errstate(over="ignore"):
                return 1.0 / (1.0 + np.exp(-z))
        return z

    @staticmethod
    def derivative(act, z, a):
        """The slope of ``act`` at pre-activation ``z``, whose activation is ``a``."""
        if act is Activation.RELU:
            return (z > 0.0).astype(z.dtype)
        if act is Activation.SIGMOID:
            return a * (1.0 - a)
        return np.ones_like(z)

    def forward_cached(self, x):
        pre, post = [], [x]
        for w, b, act in zip(self.w, self.b, self.acts):
            pre.append(post[-1] @ w.T + b)
            post.append(self.apply(act, pre[-1]))
        return pre, post

    def backprop(self, x, delta_of_output):
        pre, post = self.forward_cached(x)
        delta = delta_of_output(pre[-1], post[-1])
        gradients = []
        for i in range(len(self.w) - 1, -1, -1):
            gradients.append((delta.T @ post[i], delta.sum(axis=0)))
            if i > 0:
                delta = (delta @ self.w[i]) * self.derivative(self.acts[i - 1], pre[i - 1], post[i])
            else:
                delta = delta @ self.w[0]
        return gradients[::-1], delta

    def backward(self, x, t):
        f = self.forward_cached(x)[1][-1]
        clamped = np.clip(f, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
        u = x.shape[0]
        loss = float(-(t * np.log(clamped) + (1.0 - t) * np.log(1.0 - clamped)).sum() / u)
        gradients, input_gradient = self.backprop(x, lambda z, a: (a - t) / u)
        return gradients, input_gradient, loss

    def adam_step(self, gradients):
        self.step += 1
        correct1 = 1.0 - BETA1 ** self.step
        correct2 = 1.0 - BETA2 ** self.step
        for i, (d_w, d_b) in enumerate(gradients):
            for p, g, m, v in ((self.w[i], d_w, self.mw[i], self.vw[i]),
                               (self.b[i], d_b, self.mb[i], self.vb[i])):
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                p -= self.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + EPS)

    def matches(self, model, step) -> bool:
        """Whether ``model``, owned by an ensemble at update count ``step``, holds this state."""
        pairs = zip((self.w, self.b, self.mw, self.vw, self.mb, self.vb), named_layers(model).values())
        return self.step == step and all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for mine, theirs in pairs for a, b in zip(mine, theirs)
        )


def reference_update(ext, dnns, db, rng, batch_size, m) -> list[float]:
    """``ddl._update`` on ``ReferenceNet``s, with its input gradient dropped."""
    ext_grads, losses = None, []
    for dnn in dnns:
        states, targets = db.sample(rng, batch_size)
        flat = states.reshape(batch_size * m, ddl.INPUT_WIDTH)
        emb = ext.forward_cached(flat)[1][-1].reshape(batch_size, -1)
        gradients, input_gradient, loss = dnn.backward(emb, targets)
        dnn.adam_step(gradients)
        upstream = input_gradient.reshape(batch_size * m, -1)
        back, _ = ext.backprop(flat, lambda z, a: upstream * ext.derivative(ext.acts[-1], z, a))
        if ext_grads is None:
            ext_grads = [(gw.copy(), gb.copy()) for gw, gb in back]
        else:
            for (aw, ab), (gw, gb) in zip(ext_grads, back):
                aw += gw
                ab += gb
        losses.append(loss)
    ext.adam_step([(gw / len(dnns), gb / len(dnns)) for gw, gb in ext_grads])
    return losses


class TestReplayUpdate:
    def test_bit_identical_to_the_per_array_update(self):
        cfg = desk_config(num_dnns=3, seed=12)
        ensemble = build_ensemble(cfg)
        rate = ensemble.learning_rate
        ext, dnns = ReferenceNet(ensemble.extractor, rate), [ReferenceNet(d, rate) for d in ensemble.dnns]
        width = ensemble.dnns[0].arch.sizes[-1]
        db = ReplayDatabase(64, (DESK.num_dts, ddl.INPUT_WIDTH), width)
        fill = np.random.default_rng(13)
        for i in range(64):
            db.insert(raw_group_input(generate_random(900 + i, DESK)),
                      fill.integers(0, 2, size=width))
        got_rng, want_rng = np.random.default_rng(14), np.random.default_rng(14)
        for _ in range(4):
            got = ddl._update(ensemble, db, got_rng, 16)
            want = reference_update(ext, dnns, db, want_rng, 16, DESK.num_dts)
            assert got == want
            assert ext.matches(ensemble.extractor, ensemble.step)
            assert all(r.matches(d, ensemble.step) for r, d in zip(dnns, ensemble.dnns))


def restacked(ensemble, dtype):
    """``ensemble``'s weights as ``dtype`` with zero moments, its networks on a fresh stack."""
    ext = ensemble.extractor
    extractor = from_layers(ext.arch, ext.weights, ext.biases, dtype)
    params = ensemble.stack[0].astype(dtype)
    stack = (params, np.zeros_like(params), np.zeros_like(params))
    return DdlEnsemble(ensemble.num_dts, ensemble.num_servers, ensemble.learning_rate, extractor, stack)


class TestNetworkDtype:
    def test_trained_ensemble_and_replay_database_are_float32(self, monkeypatch):
        databases = []

        class Recorded(ReplayDatabase):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                databases.append(self)

        monkeypatch.setattr(ddl, "ReplayDatabase", Recorded)
        assert build_ensemble(desk_config(num_dnns=2)).extractor.dtype == np.float32
        cfg = desk_config(iterations=12, db_capacity=8, batch_size=4, num_dnns=3, seed=8)
        ensemble = train(cfg).ensemble
        assert ensemble.step > 0
        for model in [ensemble.extractor, *ensemble.dnns]:
            for views in named_layers(model).values():
                assert all(a.dtype == np.float32 for a in views)
        (db,) = databases
        assert db.full
        states, targets = db.sample(np.random.default_rng(0), 4)
        assert states.dtype == targets.dtype == np.float32

    def test_costs_stay_float64(self):
        ensemble = build_ensemble(desk_config(num_dnns=3, seed=8))
        s = generate_random(57, DESK)
        _, _, costs = ddl.choose(ensemble, ddl.per_dt_cost_table(s)[None], raw_group_input(s)[None])
        assert costs.dtype == np.float64
        assert type(infer(ensemble, s).cost.weighted_cost) is float


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = desk_config(iterations=12, db_capacity=8, batch_size=4, num_dnns=3, seed=8)
        result = train(cfg)
        path = tmp_path / "ensemble.npz"
        save_ensemble(path, result.ensemble)
        loaded = load_ensemble(path)

        assert loaded.num_dts == result.ensemble.num_dts
        assert loaded.num_servers == result.ensemble.num_servers
        assert loaded.num_dnns == 3
        assert loaded.step == result.ensemble.step > 0
        models = [(loaded.extractor, result.ensemble.extractor)]
        models += list(zip(loaded.dnns, result.ensemble.dnns))
        for got, want in models:
            assert isinstance(got, MlpModel)
            assert got.arch == want.arch
            for got_views, want_views in zip(named_layers(got).values(), named_layers(want).values()):
                for got_a, want_a in zip(got_views, want_views, strict=True):
                    # np.array_equal ignores dtype, so the dtype is compared on its own.
                    assert got_a.dtype == want_a.dtype == np.float32
                    assert np.array_equal(got_a, want_a)

        s = generate_random(55, DESK)
        assert best_of_k(loaded, s) == best_of_k(result.ensemble, s)

    def test_float64_ensemble_loads_and_infers_in_float64(self, tmp_path):
        wide = restacked(build_ensemble(desk_config(num_dnns=3, seed=8)), np.float64)
        path = tmp_path / "ensemble.npz"
        save_ensemble(path, wide)
        loaded = load_ensemble(path)
        for model in [loaded.extractor, *loaded.dnns]:
            for views in named_layers(model).values():
                assert all(a.dtype == np.float64 for a in views)
        s = generate_random(56, DESK)
        raw = raw_group_input(s)
        emb = loaded.extractor.forward(raw)
        assert emb.dtype == np.float64
        assert loaded.dnns[0].forward(emb.reshape(1, -1)).dtype == np.float64
        assert infer(loaded, s).decision == infer(wide, s).decision

    @pytest.mark.parametrize("kind", [
        "other-format", "list-header", "no-header", "text", "empty", "truncated-zip", "npy",
        "missing-array", "short-moment-stack", "no-networks",
        "no-step", "negative-step", "bool-step", "float-step",
        "float-num_dts", "bool-num_dts", "other-num_dts", "other-num_servers",
        "no-learning_rate", "bool-learning_rate", "string-learning_rate", "nan-learning_rate",
        "zero-learning_rate", "negative-learning_rate", "deep-header",
    ])
    def test_wrong_format_rejected(self, tmp_path, kind):
        path = tmp_path / "junk.npz"
        save_ensemble(path, build_ensemble(desk_config(num_dnns=2)))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays["header"]).decode())
        if kind == "text":
            path.write_text("not a checkpoint\n")
        elif kind == "empty":
            path.write_bytes(b"")
        elif kind == "truncated-zip":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif kind == "npy":
            with open(path, "wb") as f:
                np.save(f, arrays["dnn.params"])
        else:
            if kind == "other-format":
                arrays, header = {"header": None}, {"format": "other"}
            elif kind == "list-header":
                arrays, header = {"header": None}, [ddl.ENSEMBLE_FORMAT]
            elif kind == "no-header":
                del arrays["header"]
            elif kind == "missing-array":
                del arrays["dnn.v"]
            elif kind == "short-moment-stack":
                arrays["dnn.m"] = arrays["dnn.m"][:1]
            elif kind == "no-step":
                del header["step"]
            elif kind == "no-learning_rate":
                del header["learning_rate"]
            elif kind.endswith("-learning_rate"):
                header["learning_rate"] = {"bool": True, "string": "0.001", "nan": float("nan"),
                                           "zero": 0, "negative": -1e-3}[kind.split("-")[0]]
            elif kind.endswith("-step"):
                header["step"] = {"negative": -3, "bool": True, "float": 2.0}[kind[:-5]]
            elif kind == "deep-header":
                pass  # written below as JSON nested past the recursion limit
            elif kind.startswith(("float-", "bool-", "other-")):
                # The desk checkpoint places 6 twins on 4 servers.  5 servers need
                # 3 bits a twin where 4 need 2; 3 servers, also 2 bits, would pass.
                value, key = kind.split("-", 1)
                header[key] = {"float": 6.9, "bool": True, "other": 5}[value]
            else:
                for name in ("params", "m", "v"):
                    arrays[f"dnn.{name}"] = arrays[f"dnn.{name}"][:0]
            if "header" in arrays:
                text = "[" * 2000 if kind == "deep-header" else json.dumps(header)
                arrays["header"] = np.frombuffer(text.encode(), dtype=np.uint8)
            with open(path, "wb") as f:
                np.savez(f, **arrays)
        with pytest.raises(ContractError, match="not an ensemble checkpoint"):
            load_ensemble(path)

    def test_archive_holds_each_model_flat_and_the_networks_as_their_stack(self, tmp_path):
        cfg = desk_config(iterations=12, db_capacity=8, batch_size=4, num_dnns=3, seed=8)
        ensemble = train(cfg).ensemble
        path = tmp_path / "ensemble.npz"
        save_ensemble(path, ensemble)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        flat = [f"{model}.{name}" for model in ("ext", "dnn") for name in ("params", "m", "v")]
        assert sorted(arrays) == sorted(["header", *flat])
        for name, buffer in zip(("params", "m", "v"), ensemble.stack):
            assert arrays[f"dnn.{name}"].dtype == buffer.dtype == np.float32
            assert np.array_equal(arrays[f"dnn.{name}"], buffer)
        header = json.loads(bytes(arrays["header"]).decode())
        assert header["step"] == ensemble.step > 0
        assert header == {
            "format": ddl.ENSEMBLE_FORMAT, "version": 5, "num_dts": 6, "num_servers": 4,
            "step": ensemble.step, "learning_rate": 1e-3,
        }

    def test_a_checkpoint_loads_into_its_own_arrays(self, tmp_path):
        # The archive's (K, P) arrays become the stack, so loading holds them once, not twice.
        path = tmp_path / "ensemble.npz"
        config = TrainConfig(iterations=0, generator=GeneratorConfig(server_seed=1))
        save_ensemble(path, build_ensemble(config))
        tracemalloc.start()
        try:
            loaded = load_ensemble(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.num_dnns == 12
        stack_bytes = sum(a.nbytes for a in loaded.stack)
        assert peak < 1.25 * stack_bytes, f"peak {peak / stack_bytes:.2f} times the stack"

    @pytest.mark.parametrize("offset", [-1, 1], ids=["older", "newer"])
    def test_unknown_version_rejected(self, tmp_path, offset):
        path = tmp_path / "ensemble.npz"
        save_ensemble(path, build_ensemble(desk_config(num_dnns=2)))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays["header"]).decode())
        version = ddl.ENSEMBLE_VERSION + offset
        header["version"] = version
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        with pytest.raises(ContractError, match=f"version {version} "):
            load_ensemble(path)

    def test_resumed_training_matches_uninterrupted(self, tmp_path):
        # Checkpoints carry optimizer state, so the loaded ensemble keeps
        # stepping exactly like the original would.
        cfg = desk_config(iterations=10, db_capacity=6, batch_size=4, num_dnns=2, seed=9)
        result = train(cfg)
        path = tmp_path / "ensemble.npz"
        save_ensemble(path, result.ensemble)
        loaded = load_ensemble(path)
        assert loaded.step == result.ensemble.step

        s = generate_random(77, DESK)
        raw = raw_group_input(s)
        batch = np.repeat(raw.reshape(1, -1), 4, axis=0)
        targets = np.tile(encode_decision(best_of_k(loaded, s).decision, 4), (4, 1))
        emb_a = result.ensemble.extractor.forward(raw).reshape(1, -1)
        emb_b = loaded.extractor.forward(raw).reshape(1, -1)
        assert np.array_equal(emb_a, emb_b)
        ga = result.ensemble.dnns[0].backward(np.repeat(emb_a, 4, axis=0), targets)
        gb = loaded.dnns[0].backward(np.repeat(emb_b, 4, axis=0), targets)
        result.ensemble.dnns[0].adam_step(ga.gradients, result.ensemble.step + 1, 1e-3)
        loaded.dnns[0].adam_step(gb.gradients, loaded.step + 1, loaded.learning_rate)
        assert np.array_equal(result.ensemble.dnns[0].weights[0], loaded.dnns[0].weights[0])


FULL = GeneratorConfig()


def per_network_proposals(ensemble, raw):
    """Codes and raw outputs from each network's own ``forward``, one at a time."""
    b, m, width = raw.shape
    emb = ensemble.extractor.forward(raw.reshape(b * m, width)).reshape(b, -1)
    outputs = np.stack([dnn.forward(emb) for dnn in ensemble.dnns])
    codes = np.stack([decode_codes(out, m, ensemble.num_servers) for out in outputs])
    return codes, outputs, emb


def stacked_outputs(ensemble, emb):
    """Every network's output at once, as ``propose_batch`` computes it: ``(K, batch, out)``."""
    return feed_forward(emb, *ensemble.stack_views, ensemble.dnn_arch.activations)


def assert_rows_of_buffers(ensemble):
    params, m, v = ensemble.stack
    assert params.shape == m.shape == v.shape == (ensemble.num_dnns, ensemble.dnn_arch.num_params)
    for k, dnn in enumerate(ensemble.dnns):
        for flat, buffer in zip((dnn.params, dnn.m, dnn.v), ensemble.stack):
            assert np.shares_memory(flat, buffer[k])
            assert flat.shape == buffer[k].shape


def step_toward_other_codes(ensemble, k, raw):
    """One Adam step on ``dnns[k]`` toward the bit complement of its proposals."""
    b, m, width = raw.shape
    emb = ensemble.extractor.forward(raw.reshape(b * m, width)).reshape(b, -1)
    dnn = ensemble.dnns[k]
    targets = (dnn.forward(emb) <= 0.5).astype(float)
    dnn.adam_step(dnn.backward(emb, targets).gradients, ensemble.step + 1, ensemble.learning_rate)


class TestStackedNetworks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("gen", [DESK, FULL], ids=["desk", "full"])
    def test_batched_forward_equals_the_per_network_loop(self, gen, batch, dtype):
        ensemble = build_ensemble(TrainConfig(iterations=0, generator=gen, seed=21))
        if dtype is not np.float32:
            ensemble = restacked(ensemble, dtype)
        raw = np.stack([raw_group_input(generate_random(300 + i, gen)) for i in range(batch)])
        codes, outputs, emb = per_network_proposals(ensemble, raw)
        batched = stacked_outputs(ensemble, emb)
        assert batched.dtype == outputs.dtype == dtype
        assert np.array_equal(batched, outputs)
        assert np.array_equal(propose_batch(ensemble, raw), codes)

    def test_trained_ensemble_matches_the_per_network_loop(self):
        cfg = desk_config(iterations=14, db_capacity=8, batch_size=4, num_dnns=3, seed=22)
        ensemble = train(cfg).ensemble
        raw = np.stack([raw_group_input(generate_random(400 + i, DESK)) for i in range(70)])
        codes, outputs, emb = per_network_proposals(ensemble, raw)
        assert np.array_equal(stacked_outputs(ensemble, emb), outputs)
        assert np.array_equal(propose_batch(ensemble, raw), codes)

    @staticmethod
    def made_every_way(tmp_path):
        cfg = desk_config(num_dnns=3, seed=23, learning_rate=5.0)
        built = build_ensemble(cfg)
        trained = train(
            dataclasses.replace(cfg, iterations=10, db_capacity=6, batch_size=4)
        ).ensemble
        path = tmp_path / "ensemble.npz"
        save_ensemble(path, trained)
        loaded = load_ensemble(path)
        return {
            "build_ensemble": built,
            "train": trained,
            "load_ensemble": loaded,
            "rows of a fresh stack": restacked(built, np.float32),
            "copy.copy": copy.copy(trained),
            "copy.deepcopy": copy.deepcopy(trained),
            "pickle": pickle.loads(pickle.dumps(trained)),
        }

    def test_every_way_of_making_an_ensemble_shares_the_buffers(self, tmp_path):
        raw = np.stack([raw_group_input(generate_random(500 + i, DESK)) for i in range(32)])
        ensembles = self.made_every_way(tmp_path)
        for how, ensemble in ensembles.items():
            assert_rows_of_buffers(ensemble)
        for how, ensemble in ensembles.items():
            proposals = {name: propose_batch(e, raw) for name, e in ensembles.items()}
            step_toward_other_codes(ensemble, 1, raw)
            after = propose_batch(ensemble, raw)
            assert not np.array_equal(after[1], proposals[how][1]), how
            assert np.array_equal(after[[0, 2]], proposals[how][[0, 2]]), how
            assert np.array_equal(after, per_network_proposals(ensemble, raw)[0]), how
            # no other ensemble shares the stepped network
            for other, e in ensembles.items():
                if other != how:
                    assert np.array_equal(propose_batch(e, raw), proposals[other]), (how, other)

    @staticmethod
    def assert_same_training_state(clone, original):
        assert_rows_of_buffers(clone)
        for got, want in zip(clone.stack, original.stack):
            assert not np.shares_memory(got, want)
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)
        for flat in ("params", "m", "v"):
            got, want = getattr(clone.extractor, flat), getattr(original.extractor, flat)
            assert not np.shares_memory(got, want)
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got, want)
        assert clone.step == original.step

    @staticmethod
    def trained_and_its_labels(learning_rate=1e-3):
        """A desk ensemble trained for a few updates, and a full database of its own labels."""
        cfg = desk_config(iterations=10, db_capacity=6, batch_size=4, num_dnns=3, seed=24,
                          learning_rate=learning_rate)
        ensemble = train(cfg).ensemble
        servers = ensemble.num_servers
        db = ReplayDatabase(6, (DESK.num_dts, ddl.INPUT_WIDTH), DESK.num_dts * bits_per_dt(servers))
        for i in range(6):
            s = generate_random(600 + i, DESK)
            db.insert(raw_group_input(s), encode_decision(best_of_k(ensemble, s).decision, servers))
        return ensemble, db

    def test_copies_leave_the_original_on_its_own_buffers(self):
        original, db = self.trained_and_its_labels()
        assert original.step > 0
        clones = [copy.copy(original), copy.deepcopy(original),
                  pickle.loads(pickle.dumps(original))]
        for clone in clones:
            self.assert_same_training_state(clone, original)
        assert_rows_of_buffers(original)

        # the copies keep training exactly as the original does
        before = [buf.copy() for buf in original.stack]
        for ensemble in (original, *clones):
            ddl._update(ensemble, db, np.random.default_rng(31), 4)
        assert not np.array_equal(original.stack[0], before[0])
        for clone in clones:
            self.assert_same_training_state(clone, original)

    def test_a_replaced_ensemble_keeps_the_stack_and_the_update_count(self):
        original, db = self.trained_and_its_labels()
        clone = copy.deepcopy(original)
        same_stack = dataclasses.replace(original, num_servers=original.num_servers)
        assert all(a is b for a, b in zip(same_stack.stack, original.stack))
        assert_rows_of_buffers(same_stack)
        assert same_stack.step == original.step > 0
        # so its next update applies the bias correction of the moments it holds
        for ensemble in (clone, same_stack):
            ddl._update(ensemble, db, np.random.default_rng(32), 4)
        self.assert_same_training_state(clone, same_stack)

    def test_every_copy_keeps_the_learning_rate(self, tmp_path):
        original, db = self.trained_and_its_labels(learning_rate=0.01)
        path = tmp_path / "ensemble.npz"
        save_ensemble(path, original)
        copies = {
            "load_ensemble": load_ensemble(path),
            "copy.deepcopy": copy.deepcopy(original),
            "pickle": pickle.loads(pickle.dumps(original)),
            "dataclasses.replace": dataclasses.replace(copy.deepcopy(original)),
        }
        assert type(original.learning_rate) is float and original.learning_rate == 0.01
        for how, clone in copies.items():
            assert type(clone.learning_rate) is float and clone.learning_rate == 0.01, how
        # one more update at that rate keeps every copy on the original's bits
        for ensemble in (original, *copies.values()):
            ddl._update(ensemble, db, np.random.default_rng(33), 4)
        for clone in copies.values():
            self.assert_same_training_state(clone, original)

    # the ensemble's one shape check, and MlpModel's check of each row
    NOT_K_BY_P = r"three \(K, P\) arrays with K >= 1 and P = "
    UNFIT = "writable contiguous vectors of"

    def test_networks_of_different_architecture_or_dtype_are_refused(self):
        ensemble = build_ensemble(desk_config(num_dnns=3, seed=25))
        servers = ensemble.num_servers
        sizes = ensemble.dnn_arch.sizes
        narrow = MlpArch((sizes[0], 16, sizes[-1]), (Activation.RELU, Activation.SIGMOID))
        narrow_stack = tuple(np.zeros((3, narrow.num_params), np.float32) for _ in range(3))
        params, m, v = ensemble.stack
        read_only = v.copy()
        read_only.flags.writeable = False
        for num_servers, stack, match in [
            (servers, narrow_stack, self.NOT_K_BY_P),  # rows of another architecture's length
            # 3 code bits a twin where 4 servers need 2
            (servers + 1, ensemble.stack, self.NOT_K_BY_P),
            (servers, (params, m.astype(np.float64), v), self.UNFIT),  # moments of another dtype
            (servers, (params, m, v.astype(np.float64)), self.UNFIT),
            (servers, (params.astype(np.float64), m, v), self.UNFIT),
            (servers, tuple(a.astype(np.int32) for a in ensemble.stack), self.UNFIT),
            (servers, (np.asfortranarray(params), m, v), self.UNFIT),  # rows not contiguous
            (servers, (params, m, read_only), self.UNFIT),
        ]:
            with pytest.raises(ContractError, match=match):
                DdlEnsemble(ensemble.num_dts, num_servers, ensemble.learning_rate,
                            ensemble.extractor, stack)

    def test_a_stack_that_is_not_k_by_p_is_refused(self):
        ensemble = build_ensemble(desk_config(num_dnns=3, seed=26))
        params, m, v = ensemble.stack
        for stack in [
            (params[:0], m[:0], v[:0]),  # no networks
            (params[0], m[0], v[0]),
            (params[None], m[None], v[None]),
            (params, m[:2], v),
            (params, m, v[:, :-1]),
        ]:
            with pytest.raises(ContractError, match=r"three \(K, P\) arrays with K >= 1"):
                dataclasses.replace(ensemble, stack=stack)
        assert_rows_of_buffers(ensemble)

    def test_checkpoint_with_networks_of_different_dtype_is_refused(self, tmp_path):
        path = tmp_path / "ensemble.npz"
        save_ensemble(path, build_ensemble(desk_config(num_dnns=3, seed=28)))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        for key in ("dnn.params", "dnn.m", "dnn.v"):
            other = tmp_path / f"{key}.npz"
            with open(other, "wb") as f:
                np.savez(f, **{**arrays, key: arrays[key].astype(np.float64)})
            with pytest.raises(ContractError):
                load_ensemble(other)
