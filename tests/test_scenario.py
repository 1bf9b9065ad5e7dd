import ast
import copy
import dataclasses
import functools
import hashlib
import json
import math
import operator
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dtplace
from _oracle import reference_document, reference_validate
from dtplace.errors import ContractError, InvalidConfigError, ParseError, ValidationError
from dtplace import cost_model, scenario
from dtplace.scenario import (
    DOCUMENT_VERSION,
    EDGE_CLOCK_RANGE,
    DeviceSet,
    GeneratorConfig,
    PhysicalParams,
    Scenario,
    ServerPool,
    from_document,
    generate_random,
    to_document,
    validate,
)

DESK = GeneratorConfig(num_devices=24, num_dts=6)
GOLDEN = Path(__file__).with_name("golden_scenario.json")
SHAPES = {
    "desk": DESK,
    "full": GeneratorConfig(),
    "one-of-each": GeneratorConfig(num_devices=1, num_dts=1, num_edge_servers=1),
}


def with_first(values, value):
    """A writable copy of ``values`` whose first element (both coordinates of a pair) is ``value``."""
    out = np.array(values)
    out[0] = value
    return out


def replaced(s, part, **changes):
    """``s`` with fields of its group ``part`` replaced."""
    return dataclasses.replace(s, **{part: dataclasses.replace(getattr(s, part), **changes)})


class TestGenerate:
    def test_default_shape(self):
        s = generate_random(7)
        assert s.devices.num_devices == 120
        assert s.num_dts == 15
        assert s.servers.num_edge == 3
        assert s.num_servers_total == 4
        assert s.servers.cloud_clock_speed == 3.5

    def test_pure_function_of_seed(self):
        assert generate_random(7) == generate_random(7)

    def test_seeds_differ(self):
        assert generate_random(7) != generate_random(8)

    def test_one_device_per_dt_when_counts_match(self):
        s = generate_random(3, GeneratorConfig(num_devices=4, num_dts=4))
        assert sorted(s.devices.ownership) == [0, 1, 2, 3]

    def test_fewer_devices_than_dts_rejected(self):
        with pytest.raises(InvalidConfigError):
            generate_random(0, GeneratorConfig(num_devices=5, num_dts=6))

    def test_negative_server_seed_rejected(self):
        with pytest.raises(InvalidConfigError, match="server_seed must not be negative"):
            generate_random(0, dataclasses.replace(DESK, server_seed=-1))
        zero = dataclasses.replace(DESK, server_seed=0)
        assert generate_random(0, zero).servers == generate_random(1, zero).servers

    def test_workload_megabyte_ingest(self):
        mb = generate_random(5, DESK)
        assert all(80.0 <= w <= 320.0 for w in mb.devices.workloads)

    def test_edge_clock_range(self):
        s = generate_random(11)
        assert all(1.8 <= f <= 3.0 for f in s.servers.edge_clock_speeds)

    def test_devices_inside_field(self):
        s = generate_random(13)
        w, h = 1000.0, 800.0
        assert all(0 <= x <= w and 0 <= y <= h for x, y in s.devices.locations)

    def test_min_edge_distance_enforced(self, monkeypatch):
        monkeypatch.setattr(scenario, "MIN_EDGE_DISTANCE", 5.0)
        s = generate_random(17, DESK)
        for x, y in s.devices.locations:
            for ex, ey in s.servers.edge_locations:
                assert np.hypot(x - ex, y - ey) >= 5.0

    def test_unreachable_min_edge_distance_rejected(self, monkeypatch):
        # No point of the 1000 m x 800 m field is 2 km from every edge server.
        monkeypatch.setattr(scenario, "MIN_EDGE_DISTANCE", 2000.0)
        with pytest.raises(InvalidConfigError, match="min_edge_distance"):
            generate_random(17, DESK)

    def test_server_seed_pins_pool_across_scenarios(self):
        cfg = dataclasses.replace(DESK, server_seed=99)
        a, b = generate_random(1, cfg), generate_random(2, cfg)
        assert a.servers == b.servers
        assert a.devices != b.devices

    def test_pinned_draws_share_one_pool_object(self):
        cfg = dataclasses.replace(DESK, server_seed=98)
        a, b = generate_random(1, cfg), generate_random(2, cfg)
        assert a.servers is b.servers
        # a config that differs only outside the pool's fields shares it too
        c = generate_random(3, dataclasses.replace(cfg, num_devices=30, alpha=0.2))
        assert c.servers is a.servers
        other = generate_random(1, dataclasses.replace(cfg, server_seed=97))
        assert other.servers != a.servers

    def test_unpinned_pools_come_from_the_scenario_seed(self):
        a, b = generate_random(1, DESK), generate_random(2, DESK)
        assert a.servers != b.servers
        assert generate_random(1, DESK).servers == a.servers
        # the pool is the first draw of the scenario's own generator
        rng = np.random.default_rng(1)
        lo, hi = EDGE_CLOCK_RANGE
        assert np.array_equal(a.servers.edge_clock_speeds, rng.uniform(lo, hi, size=DESK.num_edge_servers))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), m=st.integers(1, 8))
    def test_generated_scenarios_validate_clean(self, seed, n, m):
        if n < m:
            n, m = m, n
        s = generate_random(seed, GeneratorConfig(num_devices=n, num_dts=m))
        assert validate(s) == []

    @given(seed=st.integers(0, 2**32 - 1))
    def test_no_dt_left_empty(self, seed):
        s = generate_random(seed, GeneratorConfig(num_devices=8, num_dts=6))
        assert set(s.devices.ownership) == set(range(6))


def reowned(s, owners):
    return replaced(s, "devices", ownership=owners)


# Each but "clean" breaks the invariants its name says, on any generated scenario.
MUTATIONS = {
    "clean": lambda s: s,
    "nan-workload": lambda s: replaced(s, "devices", workloads=with_first(s.devices.workloads, math.nan)),
    "zero-workload": lambda s: replaced(s, "devices", workloads=with_first(s.devices.workloads, 0.0)),
    "negative-workloads": lambda s: replaced(s, "devices", workloads=-s.devices.workloads),
    "nan-bandwidth": lambda s: replaced(s, "devices", bandwidths=with_first(s.devices.bandwidths, math.nan)),
    "zero-bandwidth": lambda s: replaced(s, "devices", bandwidths=with_first(s.devices.bandwidths, 0.0)),
    "negative-bandwidths": lambda s: replaced(s, "devices", bandwidths=-s.devices.bandwidths),
    "zero-edge-clocks": lambda s: replaced(s, "servers", edge_clock_speeds=0 * s.servers.edge_clock_speeds),
    "nan-edge-clock": lambda s: replaced(
        s, "servers", edge_clock_speeds=with_first(s.servers.edge_clock_speeds, math.nan)
    ),
    "negative-cloud-clock": lambda s: replaced(s, "servers", cloud_clock_speed=-3.5),
    "nan-cloud-clock": lambda s: replaced(s, "servers", cloud_clock_speed=math.nan),
    "zero-energies": lambda s: replaced(
        s, "servers",
        edge_exec_energy=0.0, cloud_exec_energy=-1.0, edge_tx_energy=math.nan, cloud_tx_energy=0.0,
    ),
    "negative-owner": lambda s: reowned(s, with_first(s.devices.ownership, -1)),
    "owner-past-num_dts": lambda s: reowned(s, with_first(s.devices.ownership, s.num_dts)),
    "empty-twin": lambda s: reowned(s, np.where(s.devices.ownership == 2, 0, s.devices.ownership)),
    "num_dts-past-the-devices": lambda s: dataclasses.replace(s, num_dts=s.devices.num_devices + 3),
    "num_dts-huge": lambda s: dataclasses.replace(s, num_dts=10**9),
    "num_dts-zero": lambda s: dataclasses.replace(s, num_dts=0),
    "num_dts-negative": lambda s: dataclasses.replace(s, num_dts=-2),
    "short-locations": lambda s: replaced(s, "devices", locations=s.devices.locations[:-1]),
    "short-bandwidths": lambda s: replaced(s, "devices", bandwidths=s.devices.bandwidths[:-2]),
    "short-ownership": lambda s: reowned(s, s.devices.ownership[:-1]),
    "short-edge-locations": lambda s: replaced(s, "servers", edge_locations=s.servers.edge_locations[:-1]),
    "no-devices": lambda s: replaced(s, "devices", workloads=(), locations=(), bandwidths=(), ownership=()),
    "num_servers_total": lambda s: dataclasses.replace(s, num_servers_total=s.num_servers_total + 1),
    "gamma-zero": lambda s: replaced(s, "params", gamma=0.0),
    "gamma-above-one": lambda s: replaced(s, "params", gamma=1.5),
    "gamma-nan": lambda s: replaced(s, "params", gamma=math.nan),
    "lambda_": lambda s: replaced(s, "params", lambda_=-1.0),
    "delta": lambda s: replaced(s, "params", delta=0.0),
    "alpha-below-zero": lambda s: replaced(s, "params", alpha=-0.1),
    "alpha-above-one": lambda s: replaced(s, "params", alpha=1.1),
    "several": lambda s: dataclasses.replace(
        reowned(s, with_first(s.devices.ownership, 99)),
        servers=dataclasses.replace(s.servers, edge_clock_speeds=-s.servers.edge_clock_speeds),
        params=dataclasses.replace(s.params, alpha=2.0, delta=math.nan),
        num_dts=s.num_dts + 40,
    ),
}


class TestValidate:
    def test_well_formed_is_clean(self):
        assert validate(generate_random(1, DESK)) == []

    def test_empty_dt_reported(self):
        s = generate_random(1, GeneratorConfig(num_devices=8, num_dts=5))
        ownership = tuple(0 if g == 3 else g for g in s.devices.ownership)
        bad = dataclasses.replace(s, devices=dataclasses.replace(s.devices, ownership=ownership))
        assert any("empty DT 3" in v for v in validate(bad))

    def test_a_huge_num_dts_is_reported_in_lines_proportional_to_the_devices(self):
        s = generate_random(1, DESK)
        n = len(s.devices.workloads)
        doc = json.loads(to_document(s))
        # up to the device count, every empty twin has its own line
        doc["num_dts"] = n
        with pytest.raises(ValidationError) as err:
            from_document(json.dumps(doc))
        assert err.value.violations == [
            *(f"empty DT {dt}" for dt in range(DESK.num_dts, n)),
            "num_dts differs from max ownership + 1",
        ]
        # past it, the surplus is one line
        doc["num_dts"] = 10**6
        with pytest.raises(ValidationError) as err:
            from_document(json.dumps(doc))
        assert len(err.value.violations) < 2 * n + 10
        assert f"empty DTs: {10**6 - n} of DT {n} to DT {10**6 - 1}" in err.value.violations

    def test_alpha_out_of_range_reported(self):
        s = generate_random(1, DESK)
        bad = dataclasses.replace(s, params=dataclasses.replace(s.params, alpha=1.5))
        assert any("alpha out of range" in v for v in validate(bad))

    @pytest.mark.parametrize(
        "part, field, value, message",
        [
            pytest.param("devices", "workloads", 0.0, "non-positive workload", id="workload"),
            pytest.param("devices", "bandwidths", -1.0, "non-positive bandwidth", id="bandwidth"),
            pytest.param("params", "gamma", 0.0, "gamma out of range", id="gamma-zero"),
            pytest.param("params", "gamma", 1.5, "gamma out of range", id="gamma-above-one"),
            pytest.param("params", "lambda_", 0.0, "non-positive lambda_", id="lambda_"),
            pytest.param("params", "delta", 0.0, "non-positive delta", id="delta"),
            pytest.param("servers", "edge_clock_speeds", 0.0, "edge clock speed", id="edge-clock"),
            pytest.param("servers", "cloud_clock_speed", 0.0, "cloud clock speed", id="cloud-clock"),
            pytest.param("servers", "edge_tx_energy", 0.0, "edge_tx_energy", id="edge_tx_energy"),
            pytest.param("servers", "edge_exec_energy", 0.0, "edge_exec_energy", id="edge_exec_energy"),
            pytest.param("servers", "cloud_tx_energy", 0.0, "cloud_tx_energy", id="cloud_tx_energy"),
            pytest.param("servers", "cloud_exec_energy", -1.0, "cloud_exec_energy", id="cloud_exec_energy"),
        ],
    )
    def test_cost_model_domain_reported(self, part, field, value, message):
        # The cost model assumes these domains; validate is where they are enforced.
        s = generate_random(1, DESK)
        old = getattr(getattr(s, part), field)
        new = with_first(old, value) if isinstance(old, np.ndarray) else value
        # one value changes, so the named invariant is the only one broken
        [violation] = validate(replaced(s, part, **{field: new}))
        assert message in violation

    def test_multiple_violations_collected(self):
        s = generate_random(1, DESK)
        bad = dataclasses.replace(
            s,
            params=dataclasses.replace(s.params, alpha=-0.5, gamma=2.0),
            devices=dataclasses.replace(s.devices, workloads=with_first(s.devices.workloads, -1.0)),
        )
        assert validate(bad) == [
            "non-positive workload at device 0", "gamma out of range", "alpha out of range",
        ]

    @pytest.mark.parametrize("shape", ["desk", "full"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_equals_the_reference_loop(self, shape, mutation):
        s = MUTATIONS[mutation](generate_random(5, SHAPES[shape]))
        assert validate(s) == reference_validate(s)
        assert (validate(s) == []) == (mutation == "clean")

    def test_never_raises_on_garbage_shapes(self):
        s = generate_random(1, DESK)
        bad = dataclasses.replace(
            s, servers=dataclasses.replace(s.servers, edge_locations=s.servers.edge_locations[:1])
        )
        assert validate(bad)


class TestDocuments:
    def test_round_trip_identity(self):
        s = generate_random(42)
        assert from_document(to_document(s)) == s

    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_identity_any_seed(self, seed):
        s = generate_random(seed, DESK)
        assert from_document(to_document(s)) == s

    def test_empty_document_is_parse_error(self):
        with pytest.raises(ParseError):
            from_document(b"")

    def test_syntax_error_reports_location(self):
        with pytest.raises(ParseError, match="line"):
            from_document(b"{\n  broken\n}")

    def test_missing_field_is_parse_error(self):
        doc = to_document(generate_random(1, DESK)).decode()
        broken = doc.replace('"gamma"', '"gamma_typo"')
        with pytest.raises(ParseError, match="gamma"):
            from_document(broken)

    @pytest.mark.parametrize("field", ["format", "version"])
    def test_unknown_or_missing_header_is_parse_error(self, field):
        doc = json.loads(to_document(generate_random(1, DESK)))
        doc[field] = "dt-placement-other" if field == "format" else DOCUMENT_VERSION + 1
        with pytest.raises(ParseError, match=f"unknown document {field} "):
            from_document(json.dumps(doc))
        del doc[field]
        with pytest.raises(ParseError, match=f"missing field {field}"):
            from_document(json.dumps(doc))

    def test_negative_workload_is_validation_error(self):
        s = generate_random(1, DESK)
        bad = replaced(s, "devices", workloads=with_first(s.devices.workloads, -5.0))
        with pytest.raises(ValidationError) as err:
            from_document(to_document(bad))
        assert err.value.violations == ["non-positive workload at device 0"]

    def test_bytes_that_are_not_utf8_are_a_parse_error(self):
        utf16 = to_document(generate_random(1, DESK)).decode().encode("utf-16")
        assert utf16[:2] == b"\xff\xfe"
        message = "invalid document at byte 0: not UTF-8 (invalid start byte)"
        with pytest.raises(ParseError, match=re.escape(message)):
            from_document(utf16)

    def test_document_bytes_are_stable(self):
        s = generate_random(9, DESK)
        assert to_document(s) == to_document(s)

    def test_golden_document_round_trips_byte_for_byte(self):
        data = GOLDEN.read_bytes()
        s = from_document(data)
        assert to_document(s) == data
        assert s == Scenario(
            ServerPool(
                edge_clock_speeds=(2.0, 2.5),
                cloud_clock_speed=3.5,
                edge_locations=((100.0, 200.0), (700.5, 400.25)),
                edge_exec_energy=0.125,
                cloud_exec_energy=0.1,
                edge_tx_energy=0.125,
                cloud_tx_energy=0.15,
            ),
            DeviceSet(
                workloads=(80.0, 120.5, 96.25, 300.0),
                locations=((10.0, 20.0), (950.0, 780.5), (500.0, 0.0), (123.456, 654.321)),
                bandwidths=(1000.0, 1000.0, 500.0, 1000.0),
                ownership=(0, 1, 1, 0),
            ),
            PhysicalParams(gamma=0.004, lambda_=2000.0, delta=1.5, alpha=0.5),
            num_dts=2,
            num_servers_total=3,
        )

    @pytest.mark.parametrize(
        "path, text",
        [
            pytest.param(("devices", "ownership", 0), "1.7", id="ownership-fraction"),
            pytest.param(("devices", "ownership", 0), "true", id="ownership-bool"),
            pytest.param(("num_dts",), "6.9", id="num_dts-fraction"),
            pytest.param(("num_dts",), "true", id="num_dts-bool"),
            pytest.param(("num_servers_total",), "4.0", id="num_servers_total-float"),
            pytest.param(("num_servers_total",), "true", id="num_servers_total-bool"),
            pytest.param(("version",), "1.0", id="version-float"),
            pytest.param(("version",), "true", id="version-bool"),
            pytest.param(("params", "gamma"), '"0.004"', id="scalar-string"),
            pytest.param(("params", "alpha"), "true", id="scalar-bool"),
            pytest.param(("devices", "workloads", 0), '"nan"', id="list-string"),
            pytest.param(("devices", "locations", 0, 0), "false", id="pair-bool"),
            pytest.param(("devices", "locations", 0, 0), "NaN", id="NaN"),
            pytest.param(("devices", "workloads", 0), "Infinity", id="Infinity"),
            pytest.param(("servers", "edge_clock_speeds", 0), "-Infinity", id="-Infinity"),
            pytest.param(("params", "lambda_"), "1e999", id="float-overflow"),
            pytest.param(("devices", "bandwidths", 0), "1" + "0" * 400, id="integer-overflow"),
        ],
    )
    def test_wrong_value_type_is_parse_error_naming_the_field(self, path, text):
        # Each of these was read without complaint, or only reported as a
        # violation of some other invariant, before documents were strict.
        doc = json.loads(to_document(generate_random(1, DESK)))
        *parents, last = path
        functools.reduce(operator.getitem, parents, doc)[last] = "@"
        field = ".".join(key for key in path if isinstance(key, str))
        with pytest.raises(ParseError, match=re.escape(field)):
            from_document(json.dumps(doc).replace('"@"', text))

    @pytest.mark.parametrize(
        "path, text, message",
        [
            pytest.param(("params", "gamma"), "false", "field params.gamma must be a number", id="float-bool"),
            pytest.param(("params", "delta"), "NaN", "field params.delta must be a number", id="float-NaN"),
            pytest.param(("servers", "cloud_clock_speed"), "-Infinity",
                         "field servers.cloud_clock_speed must be a number", id="float-Infinity"),
            pytest.param(("params", "lambda_"), "1" + "0" * 400, "field params.lambda_ must be a number",
                         id="float-past-double"),
            pytest.param(("num_dts",), "true", "field num_dts must be an integer", id="int-bool"),
            pytest.param(("num_dts",), str(2**63), "field num_dts must be an integer", id="int-past-int64"),
            pytest.param(("num_servers_total",), str(-(2**63) - 1), "field num_servers_total must be an integer",
                         id="int-below-int64"),
            pytest.param(("num_dts",), "NaN", "field num_dts must be an integer", id="int-NaN"),
            pytest.param(("num_dts",), "6.5", "field num_dts must be an integer", id="int-fraction"),
        ],
    )
    def test_a_scalar_of_the_wrong_kind_is_named_in_full(self, path, text, message):
        doc = json.loads(to_document(generate_random(1, DESK)))
        *parents, last = path
        functools.reduce(operator.getitem, parents, doc)[last] = "@"
        with pytest.raises(ParseError) as info:
            from_document(json.dumps(doc).replace('"@"', text))
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [2**63 - 1, -(2**63)], ids=["int64-max", "int64-min"])
    def test_an_int64_extreme_parses_to_the_check_of_the_scenario(self, value):
        # in range, the value is parsed and only then found to break an invariant
        doc = json.loads(to_document(generate_random(1, DESK)))
        doc["num_dts"] = value
        with pytest.raises(ValidationError):
            from_document(json.dumps(doc))


def _fill_floats(s, value):
    """``s`` with ``value`` in every float field, scalar, list element and coordinate."""
    fill = {
        "float": lambda v: value,
        "Floats": lambda v: with_first(v, value),
        "Pairs": lambda v: with_first(v, value),
    }
    groups = {}
    for name in ("servers", "devices", "params"):
        group = getattr(s, name)
        groups[name] = dataclasses.replace(group, **{
            f.name: fill[f.type](getattr(group, f.name))
            for f in dataclasses.fields(group) if f.type in fill
        })
    return dataclasses.replace(s, **groups)


class TestDocumentLayout:
    """``to_document`` writes the bytes of the indented ``json.dumps``."""

    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(sorted(SHAPES)))
    def test_generated_documents_equal_the_reference(self, seed, shape):
        s = generate_random(seed, SHAPES[shape])
        assert to_document(s) == reference_document(s)

    @pytest.mark.parametrize(
        "value",
        [3, -0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf],
        ids=["int", "negative-zero", "subnormal", "largest", "nan", "inf", "-inf"],
    )
    def test_every_float_field_is_written_as_the_reference_writes_it(self, value):
        s = _fill_floats(from_document(GOLDEN.read_bytes()), value)
        assert s.params.gamma is value
        assert np.array_equal(s.devices.locations[0], [value, value], equal_nan=True)
        assert to_document(s) == reference_document(s)

    def test_empty_lists_are_written_as_the_reference_writes_them(self):
        s = from_document(GOLDEN.read_bytes())
        empty = dataclasses.replace(
            s,
            servers=dataclasses.replace(s.servers, edge_clock_speeds=(), edge_locations=()),
            devices=DeviceSet(workloads=(), locations=(), bandwidths=(), ownership=()),
        )
        assert to_document(empty) == reference_document(empty)

    @pytest.mark.parametrize("group, field", [("devices", "locations"), ("servers", "edge_locations")])
    @pytest.mark.parametrize("pair", [(5.0,), (5.0, 6.0, 7.0)], ids=["1-element", "3-element"])
    def test_a_ragged_pair_is_refused_not_regrouped(self, group, field, pair):
        s = from_document(GOLDEN.read_bytes())
        # the ragged pair keeps the flattened length at twice the pair count
        other = (2.0, 3.0, 4.0) if len(pair) == 1 else (2.0,)
        part = getattr(s, group)
        locations = (pair, other, *map(tuple, getattr(part, field)[2:].tolist()))
        where = f"{type(part).__name__}.{field}"
        with pytest.raises(ContractError, match=re.escape(f"{where} must be a sequence of (x, y) pairs")):
            dataclasses.replace(part, **{field: locations})


# SHA-256 of to_document(generate_random(seed, shape)), recorded before the
# generator and the writer moved onto tolist and the C encoder: any change to
# a drawn value or to a document byte shows here.
PINNED_SHAPES = {
    "desk-pinned-pool": dataclasses.replace(DESK, server_seed=0),
    "full": GeneratorConfig(),
}
PINNED = {
    ("desk-pinned-pool", 0): "3e7b012c62fc140e8fa29d22d5be13c449092982a90c632b589dd85e5b5945ff",
    ("desk-pinned-pool", 1): "c92c3c9c698644c3a2ef683bfd49c385b3572702c20c7b30a10097b18a04b0c8",
    ("desk-pinned-pool", 2**32 - 1): "3a2a29566721b6ba8f634c751c41742fb6860beda79a259529d809f8617c131c",
    ("full", 0): "814eaabdac2b22f573016fae1afc04b81223d93634f61f89dd19c10dd86dc665",
    ("full", 1): "0a2fc08ab14f48a8e786d5da64d4e88d0bf32574073b4f965ce8e7ca2719a79c",
    ("full", 2**32 - 1): "3dcf30858348050da037b3284ac36cb3f08155b072c705c5061515c480bd2397",
}


@pytest.mark.parametrize("shape, seed", sorted(PINNED), ids=[f"{k}-{v}" for k, v in sorted(PINNED)])
def test_generated_documents_are_pinned(shape, seed):
    s = generate_random(seed, PINNED_SHAPES[shape])
    assert hashlib.sha256(to_document(s)).hexdigest() == PINNED[shape, seed]
    # no numpy scalar leaks into the scalar fields, and the arrays hold float64 and int64
    pool, dev, par = s.servers, s.devices, s.params
    scalars = [getattr(group, f.name) for group in (pool, par)
               for f in dataclasses.fields(group) if f.type == "float"]
    assert {type(v) for v in scalars} == {float}
    floats = (pool.edge_clock_speeds, pool.edge_locations, dev.workloads, dev.locations, dev.bandwidths)
    assert {a.dtype for a in floats} == {np.dtype(np.float64)}
    assert dev.ownership.dtype == np.int64


LAYOUT_FIELDS = {
    "workloads", "locations", "bandwidths", "ownership", "edge_locations", "edge_clock_speeds",
}
CONVERTERS = {"array", "asarray", "fromiter", "tuple", "list", "tolist"}


def test_only_scenario_converts_a_groups_fields():
    """Every other module reads a group's arrays as they are, and no module keeps another view."""
    assert not hasattr(scenario, "PoolArrays") and not hasattr(scenario, "DeviceArrays")
    package = Path(dtplace.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "arrays":
                found.append(f"{path.name}:{node.lineno} .arrays")
            if path.name == "scenario.py" or not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            operands = [*node.args, getattr(node.func, "value", None)]  # the arguments, a method's receiver
            read = {n.attr for n in operands if isinstance(n, ast.Attribute)} & LAYOUT_FIELDS
            if name in CONVERTERS and read:
                found.append(f"{path.name}:{node.lineno} {name} of .{min(read)}")
    assert found == []


ARRAY_FIELDS = {
    "servers": {"edge_clock_speeds": ((2,), np.float64), "edge_locations": ((2, 2), np.float64)},
    "devices": {
        "workloads": ((4,), np.float64),
        "locations": ((4, 2), np.float64),
        "bandwidths": ((4,), np.float64),
        "ownership": ((4,), np.int64),
    },
}


def arrays_of(s):
    return [getattr(getattr(s, part), name) for part, names in ARRAY_FIELDS.items() for name in names]


class TestArrayViews:
    """A group's fields are its array views: read-only arrays its constructor builds once."""

    def test_views_hold_the_fields(self):
        # built from tuples, from lists and from arrays, each field is one read-only array
        doc = json.loads(GOLDEN.read_bytes())
        for given in (tuple, list, np.array):
            groups = {}
            for part, cls in (("servers", ServerPool), ("devices", DeviceSet)):
                values = {}
                for key, value in doc[part].items():
                    if type(value) is list:  # nested pairs too
                        value = given([given(v) if type(v) is list else v for v in value])
                    values[key] = value
                groups[part] = cls(**values)
            for part, names in ARRAY_FIELDS.items():
                for name, (shape, dtype) in names.items():
                    array = getattr(groups[part], name)
                    assert type(array) is np.ndarray and array.shape == shape and array.dtype == dtype
                    assert not array.flags.writeable
                    assert array.tolist() == doc[part][name]

    def test_writing_into_a_view_raises(self):
        for array in arrays_of(generate_random(3, DESK)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_a_writable_input_array_is_copied(self):
        workloads, locations, owners = np.array([80.0, 90.0]), np.zeros((2, 2)), np.array([0, 0])
        devices = DeviceSet(workloads, locations, workloads, owners)
        for given in (workloads, locations, owners):
            given[0] = 7
        assert devices == DeviceSet((80.0, 90.0), ((0.0, 0.0), (0.0, 0.0)), (80.0, 90.0), (0, 0))
        assert not any(np.shares_memory(a, b) for a in (workloads, locations, owners)
                       for b in (devices.workloads, devices.locations, devices.bandwidths, devices.ownership))

    def test_reading_the_view_leaves_equality_hash_and_bytes_alone(self):
        s, twin = generate_random(3, DESK), generate_random(3, DESK)
        before = to_document(s)
        assert s.devices.workloads is not twin.devices.workloads
        assert s == twin and hash(s) == hash(twin)
        assert to_document(s) == before
        # content decides: 0.0 == -0.0, so the two hash alike, and a moved device is unequal
        zero, negative_zero = (
            replaced(s, "devices", locations=with_first(s.devices.locations, v)) for v in (0.0, -0.0)
        )
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        assert zero != s and zero.devices != s.devices and s.devices != s.servers

    @pytest.mark.parametrize(
        "copier", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))], ids=["deepcopy", "pickle"],
    )
    def test_copies_rebuild_through_the_constructor(self, copier):
        s = generate_random(3, DESK)
        cost_model.per_dt_cost_table(s)  # keeps the pricing on the device set
        copied = copier(s)
        assert copied == s and hash(copied) == hash(s)
        assert "_pricing" in vars(s.devices) and "_pricing" not in vars(copied.devices)
        assert not any(a.flags.writeable for a in arrays_of(copied))

    def test_reweighted_scenarios_share_one_view(self):
        s = generate_random(3, DESK)
        other = dataclasses.replace(s, params=dataclasses.replace(s.params, alpha=0.9))
        assert other.devices is s.devices and other.servers is s.servers

    def test_views_equal_the_nested_array_build_on_the_golden_scenario(self):
        s = from_document(GOLDEN.read_bytes())
        doc = json.loads(GOLDEN.read_bytes())
        for part, names in ARRAY_FIELDS.items():
            for name in names:
                want = np.array(doc[part][name])
                got = getattr(getattr(s, part), name)
                assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("pair", [(5.0,), (5.0, 6.0, 7.0)], ids=["1-element", "3-element"])
    def test_a_ragged_location_pair_raises(self, pair):
        s = from_document(GOLDEN.read_bytes())
        # the ragged pair keeps the flattened length at twice the device count
        other = (2.0, 3.0, 4.0) if len(pair) == 1 else (2.0,)
        with pytest.raises(ContractError, match="DeviceSet.locations must be a sequence of"):
            DeviceSet(s.devices.workloads, (pair, other, (1.0, 1.0), (2.0, 2.0)),
                      s.devices.bandwidths, s.devices.ownership)

    @pytest.mark.parametrize(
        "part, field, value, what",
        [
            pytest.param("devices", "locations", np.zeros((4, 3)), "(x, y) pairs", id="triples"),
            pytest.param("devices", "locations", (1.0, 2.0, 3.0, 4.0), "(x, y) pairs", id="flat-locations"),
            pytest.param("servers", "edge_locations", ((1.0, "2"), (3.0, 4.0)), "(x, y) pairs",
                         id="string-coordinate"),
            pytest.param("devices", "ownership", (0.0, 1.0, 1.0, 0.0), "integers", id="float-owners"),
            pytest.param("devices", "ownership", (0, 1.7, 1, 0), "integers", id="fractional-owner"),
            pytest.param("devices", "ownership", (True, False, True, False), "integers", id="bool-owners"),
            pytest.param("devices", "ownership", (2**70, 0, 1, 0), "integers", id="huge-owner"),
            pytest.param("devices", "ownership", (2**63, 0, 1, 0), "integers", id="uint64-owner"),
            pytest.param("devices", "workloads", ("80", "90", "100", "110"), "numbers",
                         id="string-workloads"),
            pytest.param("devices", "workloads", (80.0, None, 1.0, 2.0), "numbers", id="none-workload"),
            pytest.param("devices", "bandwidths", (True,) * 4, "numbers", id="bool-bandwidths"),
            pytest.param("devices", "workloads", 80.0, "numbers", id="scalar-workloads"),
            pytest.param("devices", "workloads", ((80.0,),) * 4, "numbers", id="nested-workloads"),
            pytest.param("servers", "edge_clock_speeds", (2.0 + 1j, 2.5), "numbers", id="complex-clock"),
        ],
    )
    def test_each_refusal_raises_contract_error(self, part, field, value, what):
        group = getattr(from_document(GOLDEN.read_bytes()), part)
        message = f"{type(group).__name__}.{field} must be a sequence of {what}"
        with pytest.raises(ContractError, match=re.escape(message)):
            dataclasses.replace(group, **{field: value})
