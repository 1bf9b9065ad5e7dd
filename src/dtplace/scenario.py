"""Placement environment: server pool, device set, physical constants.

A scenario couples three ingredient groups:

* a server pool with S edge servers plus one cloud server (the cloud sits at
  index S in every dense server encoding),
* a device set, each device feeding exactly one digital twin (DT),
* physical constants governing transmission, execution, and the latency/energy
  weighting.

The pool and the device set hold their per-server and per-device values as
read-only NumPy arrays, built once by their constructors; they have no other
view.  Scenario values are immutable and compare by content.  Generation is
a pure function of ``(seed, config)``; serialization round-trips exactly.

Units: workloads are data units (generated ones are megabits), bandwidths
Mbps, clock speeds GHz, coordinates meters, energies millijoules.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from itertools import chain
from math import isfinite

import numpy as np

from .errors import ContractError, InvalidConfigError, ParseError, ValidationError

DOCUMENT_FORMAT = "dt-placement-scenario"
DOCUMENT_VERSION = 1

# The array fields' annotations, which key the constructor, the reader and the writer.
Floats = np.ndarray  # (n,) float64
Ints = np.ndarray  # (n,) int64
Pairs = np.ndarray  # (n, 2) float64
# annotation: (dtype, the dtype kinds converted to it, row shape, what a value must be)
_ARRAY_KINDS = {
    "Floats": (np.float64, "iuf", (), "a sequence of numbers"),
    "Ints": (np.int64, "i", (), "a sequence of integers"),  # unsigned ones could wrap
    "Pairs": (np.float64, "iuf", (2,), "a sequence of (x, y) pairs of numbers"),
}


def _frozen(values, kind: str, where: str) -> np.ndarray:
    """``values`` copied into a fresh read-only array of the field kind's dtype and shape.

    Raises :class:`ContractError` for what is no such array: ragged or
    non-pair rows, non-numbers, and non-integers where integers belong.
    """
    dtype, kinds, row, what = _ARRAY_KINDS[kind]
    try:
        out = np.array(values)
    except ValueError:  # ragged rows
        raise ContractError(f"{where} must be {what}") from None
    if out.shape == (0,):
        out = out.reshape(0, *row)
    if out.ndim != 1 + len(row) or out.shape[1:] != row or (out.size and out.dtype.kind not in kinds):
        raise ContractError(f"{where} must be {what}")
    out = out.astype(dtype, copy=False)
    out.flags.writeable = False
    return out


@functools.cache
def _array_fields(cls) -> tuple:
    """``(name, kind, location)`` of each array field of the group class ``cls``."""
    return tuple((f.name, f.type, f"{cls.__name__}.{f.name}") for f in fields(cls) if f.type in _ARRAY_KINDS)


class _Group:
    """A group of scenario values, some held as read-only arrays.

    Its constructor normalises each array field through :func:`_frozen`.  It
    compares and hashes by content: arrays by their values as Python numbers,
    so ``0.0 == -0.0`` hash alike.  Copies and pickles rebuild through the
    constructor and leave the caches kept beside the fields behind.
    """

    def __post_init__(self):
        for name, kind, where in _array_fields(type(self)):
            object.__setattr__(self, name, _frozen(getattr(self, name), kind, where))

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def _content(self) -> tuple:
        return tuple(tuple(v.ravel().tolist()) if isinstance(v, np.ndarray) else v for v in self._values())

    def __eq__(self, other):
        return self._content() == other._content() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._content())

    def __reduce__(self):
        return type(self), self._values()


@dataclass(frozen=True, eq=False)
class ServerPool(_Group):
    """Edge servers plus one cloud server.

    ``edge_exec_energy``/``cloud_exec_energy`` are mJ per instruction,
    ``edge_tx_energy``/``cloud_tx_energy`` mJ per data unit.
    """

    edge_clock_speeds: Floats
    cloud_clock_speed: float
    edge_locations: Pairs
    edge_exec_energy: float
    cloud_exec_energy: float
    edge_tx_energy: float
    cloud_tx_energy: float

    @property
    def num_edge(self) -> int:
        return len(self.edge_clock_speeds)


@dataclass(frozen=True, eq=False)
class DeviceSet(_Group):
    """Per-device workloads, positions, uplink bandwidths, and DT ownership."""

    workloads: Floats
    locations: Pairs
    bandwidths: Floats
    ownership: Ints

    @property
    def num_devices(self) -> int:
        return len(self.workloads)


@dataclass(frozen=True)
class PhysicalParams:
    """Network and weighting constants.

    ``gamma`` discounts the nominal device bandwidth on the long-haul cloud
    path, ``lambda_`` is the edge rate constant (Mbps·m), ``delta`` the
    instruction density per data unit, ``alpha`` the latency weight in the
    scalar cost (energy gets ``1 - alpha``).
    """

    gamma: float
    lambda_: float
    delta: float
    alpha: float


@dataclass(frozen=True)
class Scenario:
    servers: ServerPool
    devices: DeviceSet
    params: PhysicalParams
    num_dts: int
    num_servers_total: int


# The environment every generated scenario shares.  Documents carry these
# values, so a document may hold others and still parse, validate and solve.
FIELD_SIZE = (1000.0, 800.0)  # meters
WORKLOAD_RANGE = (10.0, 40.0)  # megabytes
MEGABITS_PER_MEGABYTE = 8.0
BANDWIDTH = 1000.0  # Mbps
EDGE_CLOCK_RANGE = (1.8, 3.0)  # GHz
CLOUD_CLOCK_SPEED = 3.5  # GHz
CLOUD_EXEC_ENERGY = 0.1  # mJ per instruction
EDGE_EXEC_ENERGY = 0.125
CLOUD_TX_ENERGY = 0.15  # mJ per data unit
EDGE_TX_ENERGY = 0.125
GAMMA = 0.004
LAMBDA = 2000.0
DELTA = 1.5
MIN_EDGE_DISTANCE = 1.0  # meters between a device and any edge server


@dataclass(frozen=True)
class GeneratorConfig:
    """Random scenario shape.

    Defaults describe the full-scale environment: 120 devices feeding 15 DTs,
    and 3 edge servers next to one cloud server.

    ``server_seed`` pins the server pool: scenarios generated with different
    seeds but the same ``server_seed`` share one pool, which is how a decision
    engine trained for a fixed deployment sees fresh device populations.
    """

    num_devices: int = 120
    num_dts: int = 15
    num_edge_servers: int = 3
    alpha: float = 0.5
    server_seed: int | None = None


def _check_config(config: GeneratorConfig) -> None:
    c = config
    if c.num_dts < 1:
        raise InvalidConfigError("num_dts must be at least 1")
    if c.num_devices < c.num_dts:
        raise InvalidConfigError(
            f"num_devices ({c.num_devices}) must be >= num_dts ({c.num_dts}) "
            "to leave no DT empty"
        )
    if c.num_edge_servers < 1:
        raise InvalidConfigError("num_edge_servers must be at least 1")
    if not 0 <= c.alpha <= 1:
        raise InvalidConfigError("alpha must lie in [0, 1]")
    if c.server_seed is not None and c.server_seed < 0:
        raise InvalidConfigError("server_seed must not be negative")


_LOCATION_REDRAWS = 1000


def _draw_locations(rng, count, edges):
    """Uniform positions, kept MIN_EDGE_DISTANCE away from the ``(S, 2)`` edge servers.

    Devices too close to an edge server are redrawn; if some still are after
    ``_LOCATION_REDRAWS`` rounds, the distance cannot be met and this raises.
    """

    def draw(n):
        return rng.uniform((0.0, 0.0), FIELD_SIZE, size=(n, 2))

    def too_close():
        dist = np.hypot(pts[:, None, 0] - edges[None, :, 0],
                        pts[:, None, 1] - edges[None, :, 1])
        return dist.min(axis=1) < MIN_EDGE_DISTANCE

    pts = draw(count)
    for _ in range(_LOCATION_REDRAWS):
        bad = too_close()
        if not bad.any():
            return pts
        pts[bad] = draw(int(bad.sum()))
    if too_close().any():
        raise InvalidConfigError(
            f"min_edge_distance {MIN_EDGE_DISTANCE} leaves devices too "
            f"close to an edge server after {_LOCATION_REDRAWS} redraws"
        )
    return pts


def _draw_pool(rng, num_edge_servers: int) -> ServerPool:
    return ServerPool(
        edge_clock_speeds=rng.uniform(*EDGE_CLOCK_RANGE, size=num_edge_servers),
        cloud_clock_speed=CLOUD_CLOCK_SPEED,
        edge_locations=rng.uniform((0.0, 0.0), FIELD_SIZE, size=(num_edge_servers, 2)),
        edge_exec_energy=EDGE_EXEC_ENERGY,
        cloud_exec_energy=CLOUD_EXEC_ENERGY,
        edge_tx_energy=EDGE_TX_ENERGY,
        cloud_tx_energy=CLOUD_TX_ENERGY,
    )


@functools.lru_cache(maxsize=16, typed=True)
def _pinned_pool(server_seed: int, num_edge_servers: int) -> ServerPool:
    return _draw_pool(np.random.default_rng(server_seed), num_edge_servers)


def generate_random(seed: int, config: GeneratorConfig = GeneratorConfig()) -> Scenario:
    """Draw a scenario; a pure function of ``(seed, config)``.

    Devices are placed uniformly in the field, ownership is uniform over DTs
    with empty DTs repaired by moving one random device each, and workloads
    are uniform over WORKLOAD_RANGE megabytes, counted in megabits.  A pinned
    pool (``server_seed`` set) is drawn once per ``(server_seed,
    num_edge_servers)``, and every scenario drawn with that pair shares that
    one ``ServerPool``.
    """
    _check_config(config)
    rng = np.random.default_rng(seed)
    if config.server_seed is None:
        servers = _draw_pool(rng, config.num_edge_servers)
    else:
        servers = _pinned_pool(config.server_seed, config.num_edge_servers)

    n, m = config.num_devices, config.num_dts
    ownership = rng.integers(0, m, size=n)
    counts = np.bincount(ownership, minlength=m)
    for dt in range(m):
        if counts[dt] == 0:
            donors = np.flatnonzero(counts[ownership] >= 2)
            moved = int(rng.choice(donors))
            counts[ownership[moved]] -= 1
            ownership[moved] = dt
            counts[dt] += 1

    locations = _draw_locations(rng, n, servers.edge_locations)
    workloads = rng.uniform(*WORKLOAD_RANGE, size=n) * MEGABITS_PER_MEGABYTE

    devices = DeviceSet(
        workloads=workloads, locations=locations, bandwidths=np.full(n, BANDWIDTH), ownership=ownership
    )
    params = PhysicalParams(gamma=GAMMA, lambda_=LAMBDA, delta=DELTA, alpha=float(config.alpha))
    return Scenario(servers, devices, params, num_dts=m, num_servers_total=config.num_edge_servers + 1)


def _not_positive(values: np.ndarray) -> list[int]:
    """Indices of the values that are not above zero, NaN included."""
    return np.flatnonzero(~(values > 0)).tolist()


def validate(s: Scenario) -> list[str]:
    """Report every invariant violation; an empty list means well-formed.

    Never raises: a malformed scenario yields messages, not exceptions.  Its
    work is proportional to the device and server counts, whatever ``num_dts``.
    """
    out: list[str] = []
    pool, dev, par = s.servers, s.devices, s.params

    n_edge = len(pool.edge_clock_speeds)
    if len(pool.edge_locations) != n_edge:
        out.append("edge_locations length differs from edge_clock_speeds")
    out.extend(f"non-positive edge clock speed at server {i}" for i in _not_positive(pool.edge_clock_speeds))
    if not pool.cloud_clock_speed > 0:
        out.append("non-positive cloud clock speed")
    for name in ("edge_exec_energy", "cloud_exec_energy", "edge_tx_energy", "cloud_tx_energy"):
        if not getattr(pool, name) > 0:
            out.append(f"non-positive {name}")

    n = len(dev.workloads)
    for name in ("locations", "bandwidths", "ownership"):
        if len(getattr(dev, name)) != n:
            out.append(f"{name} length differs from workloads")
    out.extend(f"non-positive workload at device {i}" for i in _not_positive(dev.workloads))
    out.extend(f"non-positive bandwidth at device {i}" for i in _not_positive(dev.bandwidths))

    own = dev.ownership
    inside = (own >= 0) & (own < s.num_dts)
    out.extend(f"ownership out of range at device {i}" for i in np.flatnonzero(~inside).tolist())
    # n devices fill at most n twins, so past the first n the empty twins are
    # counted in one line: the report stays O(devices) for any num_dts
    listed = max(min(s.num_dts, own.size), 0)
    filled = np.zeros(listed, bool)
    filled[own[inside & (own < listed)]] = True
    out.extend(f"empty DT {dt}" for dt in np.flatnonzero(~filled).tolist())
    surplus = s.num_dts - listed - np.unique(own[inside & (own >= listed)]).size
    if surplus > 0:
        out.append(f"empty DTs: {surplus} of DT {listed} to DT {s.num_dts - 1}")

    if s.num_dts < 1:
        out.append("num_dts out of range")
    elif own.size and s.num_dts != int(own.max()) + 1:
        out.append("num_dts differs from max ownership + 1")
    if s.num_servers_total != n_edge + 1:
        out.append("num_servers_total differs from edge server count + 1")

    if not 0 < par.gamma <= 1:
        out.append("gamma out of range")
    if not par.lambda_ > 0:
        out.append("non-positive lambda_")
    if not par.delta > 0:
        out.append("non-positive delta")
    if not 0 <= par.alpha <= 1:
        out.append("alpha out of range")
    return out


# Documents are laid out byte for byte as ``json.dumps(doc, indent=2)`` lays
# them out.  CPython serves any ``indent`` with its pure-Python encoder, so each
# list goes through the C encoder (used only without ``indent``) instead, with
# the separators of its depth: every list sits in a group, two levels down.
_ITEMS = json.JSONEncoder(separators=(",\n      ", ": ")).encode
_COORD = ",\n        "
_PAIR = "\n      ],\n      [\n        "


def _write_list(values: np.ndarray) -> str:
    return "[\n      " + _ITEMS(values.tolist())[1:-1] + "\n    ]" if values.size else "[]"


def _write_pairs(pairs: np.ndarray) -> str:
    """Coordinate pairs, encoded as one flat list and regrouped."""
    if not pairs.size:
        return "[]"
    numbers = iter(json.dumps(pairs.ravel().tolist())[1:-1].split(", "))
    return "[\n      [\n        " + _PAIR.join(map(_COORD.join, zip(numbers, numbers))) + "\n      ]\n    ]"


# Keyed like _CONVERTERS, by each field's annotation as written.
_WRITERS = {
    "float": json.dumps,
    "int": json.dumps,
    "Floats": _write_list,
    "Ints": _write_list,
    "Pairs": _write_pairs,
}


def to_document(s: Scenario) -> bytes:
    """Serialize to a stable JSON document (UTF-8 bytes).

    Each group lists its fields in declaration order; arrays become lists.
    The bytes are those of ``json.dumps(doc, indent=2) + "\\n"``.
    """
    head = {
        "format": DOCUMENT_FORMAT,
        "version": DOCUMENT_VERSION,
        "num_dts": s.num_dts,
        "num_servers_total": s.num_servers_total,
    }
    members = [f'"{key}": {json.dumps(value)}' for key, value in head.items()]
    for name in ("servers", "devices", "params"):
        group = getattr(s, name)
        body = ",\n    ".join(
            f'"{f.name}": {_WRITERS[f.type](getattr(group, f.name))}' for f in fields(group)
        )
        members.append(f'"{name}": {{\n    {body}\n  }}')
    return ("{\n  " + ",\n  ".join(members) + "\n}\n").encode("utf-8")


def _get(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing field {path}{key}")
    return mapping[key]


# Types are compared exactly: a boolean is an int to Python but no number in
# a document.
_NUMBERS = {int, float}


def _numbers(values, path, what):
    """A JSON list of finite numbers as a float64 array."""
    try:
        if type(values) is list and set(map(type, values)) <= _NUMBERS and all(map(isfinite, values)):
            return np.array(values, dtype=np.float64)
    except OverflowError:  # an integer too large for a float
        pass
    raise ParseError(f"field {path} must be {what}")


def _integers(values, path, what):
    """A JSON list of integers as an int64 array."""
    try:
        if type(values) is list and set(map(type, values)) <= {int}:
            return np.array(values, dtype=np.int64)
    except OverflowError:  # an integer outside int64
        pass
    raise ParseError(f"field {path} must be {what}")


def _number(value, path):
    """A JSON number, finite, as a float."""
    try:
        if type(value) in _NUMBERS and isfinite(value):
            return float(value)
    except OverflowError:  # an integer too large for a float
        pass
    raise ParseError(f"field {path} must be a number")


def _integer(value, path):
    """A JSON integer that fits int64."""
    if type(value) is int and -(2**63) <= value < 2**63:
        return value
    raise ParseError(f"field {path} must be an integer")


def _pairs(values, path):
    what = "a list of [x, y] pairs"
    if type(values) is not list or not set(map(type, values)) <= {list} or not set(map(len, values)) <= {2}:
        raise ParseError(f"field {path} must be {what}")
    return _numbers(list(chain.from_iterable(values)), path, what).reshape(-1, 2)


def _parse(cls, raw, prefix):
    """Build the dataclass ``cls`` from ``raw``, converting each field by its declared type."""
    return cls(**{
        f.name: _CONVERTERS[f.type](_get(raw, f.name, prefix), prefix + f.name)
        for f in fields(cls)
    })


# Keyed by each field's annotation as written: under postponed evaluation of
# annotations, ``dataclasses.Field.type`` is that string.
_CONVERTERS = {
    "float": _number,
    "int": _integer,
    "Floats": lambda v, path: _numbers(v, path, "a list of numbers"),
    "Ints": lambda v, path: _integers(v, path, "a list of integers"),
    "Pairs": _pairs,
}
_CONVERTERS.update(
    (cls.__name__, lambda raw, path, cls=cls: _parse(cls, raw, path + "."))
    for cls in (ServerPool, DeviceSet, PhysicalParams)
)
# NaN and Infinity arrive as strings, which no number field accepts.
_DECODER = json.JSONDecoder(parse_constant=str)


def from_document(data: bytes | str) -> Scenario:
    """Parse a document produced by :func:`to_document`.

    Raises :class:`ParseError` for malformed input, with a location where the
    JSON parser provides one and the field's name where a value has the
    wrong type: bytes must be UTF-8, numbers must be finite, integers take
    no fraction and fit 64 bits, and booleans are neither.  JSON nested past
    the recursion limit or holding an integer literal past Python's
    int-string limit is a ``ParseError`` too.  Raises
    :class:`ValidationError`, listing every violation, when the parsed
    scenario breaks invariants.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except UnicodeDecodeError as e:
        raise ParseError(f"invalid document at byte {e.start}: not UTF-8 ({e.reason})") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid document at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("invalid document: nested too deeply") from None
    except ValueError as e:  # an integer literal past Python's int-string limit
        raise ParseError(f"invalid document: {e}") from None

    for key, expected in (("format", DOCUMENT_FORMAT), ("version", DOCUMENT_VERSION)):
        value = _get(doc, key, "")
        if type(value) is not type(expected) or value != expected:
            raise ParseError(f"unknown document {key} {value!r}, expected {expected!r}")
    scenario = _parse(Scenario, doc, "")
    violations = validate(scenario)
    if violations:
        raise ValidationError(violations)
    return scenario
