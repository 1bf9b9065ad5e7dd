"""Placement environment: server pool, device set, physical constants.

A scenario couples three ingredient groups:

* a server pool with S edge servers plus one cloud server (the cloud sits at
  index S in every dense server encoding),
* a device set, each device feeding exactly one digital twin (DT),
* physical constants governing transmission, execution, and the latency/energy
  weighting.

Scenario values are immutable and compare by content.  Generation is a pure
function of ``(seed, config)``; serialization round-trips exactly.

Units: workloads are data units (megabits when generated with the default
megabyte ingest flag), bandwidths Mbps, clock speeds GHz, coordinates meters,
energies millijoules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, ParseError, ValidationError

Coord = tuple[float, float]

DOCUMENT_FORMAT = "dt-placement-scenario"
DOCUMENT_VERSION = 1


@dataclass(frozen=True)
class ServerPool:
    """Edge servers plus one cloud server.

    ``edge_exec_energy``/``cloud_exec_energy`` are mJ per instruction,
    ``edge_tx_energy``/``cloud_tx_energy`` mJ per data unit.
    """

    edge_clock_speeds: tuple[float, ...]
    cloud_clock_speed: float
    edge_locations: tuple[Coord, ...]
    edge_exec_energy: float
    cloud_exec_energy: float
    edge_tx_energy: float
    cloud_tx_energy: float

    @property
    def num_edge(self) -> int:
        return len(self.edge_clock_speeds)


@dataclass(frozen=True)
class DeviceSet:
    """Per-device workloads, positions, uplink bandwidths, and DT ownership."""

    workloads: tuple[float, ...]
    locations: tuple[Coord, ...]
    bandwidths: tuple[float, ...]
    ownership: tuple[int, ...]

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


@dataclass(frozen=True)
class GeneratorConfig:
    """Random scenario shape and constants.

    Defaults describe the full-scale environment: a 1000 m x 800 m field,
    120 devices feeding 15 DTs, and 3 edge servers next to one cloud server.
    Workload bounds are megabytes unless ``workload_in_megabytes`` is cleared,
    in which case they are used verbatim as data units.

    ``server_seed`` pins the server pool: scenarios generated with different
    seeds but the same ``server_seed`` share one pool, which is how a decision
    engine trained for a fixed deployment sees fresh device populations.
    """

    num_devices: int = 120
    num_dts: int = 15
    num_edge_servers: int = 3
    field_size: Coord = (1000.0, 800.0)
    workload_range: tuple[float, float] = (10.0, 40.0)
    workload_in_megabytes: bool = True
    bandwidth: float = 1000.0
    edge_clock_range: tuple[float, float] = (1.8, 3.0)
    cloud_clock_speed: float = 3.5
    cloud_exec_energy: float = 0.1
    edge_exec_energy: float = 0.125
    cloud_tx_energy: float = 0.15
    edge_tx_energy: float = 0.125
    gamma: float = 0.004
    lambda_: float = 2000.0
    delta: float = 1.5
    alpha: float = 0.5
    cluster_devices: bool = False
    cluster_spread: float = 120.0
    min_edge_distance: float = 1.0
    server_seed: int | None = None


MEGABITS_PER_MEGABYTE = 8.0


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
    if not (c.field_size[0] > 0 and c.field_size[1] > 0):
        raise InvalidConfigError("field_size must be positive")
    lo, hi = c.workload_range
    if not (0 < lo <= hi):
        raise InvalidConfigError("workload_range must satisfy 0 < lo <= hi")
    lo, hi = c.edge_clock_range
    if not (0 < lo <= hi):
        raise InvalidConfigError("edge_clock_range must satisfy 0 < lo <= hi")
    if c.cloud_clock_speed <= 0 or c.bandwidth <= 0:
        raise InvalidConfigError("cloud_clock_speed and bandwidth must be positive")
    for name in ("cloud_exec_energy", "edge_exec_energy", "cloud_tx_energy", "edge_tx_energy"):
        if getattr(c, name) <= 0:
            raise InvalidConfigError(f"{name} must be positive")
    if not 0 < c.gamma <= 1:
        raise InvalidConfigError("gamma must lie in (0, 1]")
    if c.lambda_ <= 0 or c.delta <= 0:
        raise InvalidConfigError("lambda_ and delta must be positive")
    if not 0 <= c.alpha <= 1:
        raise InvalidConfigError("alpha must lie in [0, 1]")
    if c.cluster_spread <= 0:
        raise InvalidConfigError("cluster_spread must be positive")
    if c.min_edge_distance < 0:
        raise InvalidConfigError("min_edge_distance must be non-negative")


_LOCATION_REDRAWS = 1000


def _draw_locations(rng, count, config, edge_locations, centers=None):
    """Uniform (or clustered) positions, kept min_edge_distance away from edges.

    Devices too close to an edge server are redrawn; if some still are after
    ``_LOCATION_REDRAWS`` rounds, the distance cannot be met and this raises.
    """
    w, h = config.field_size
    edges = np.asarray(edge_locations, dtype=float)

    def draw(n, idx):
        if centers is None:
            return rng.uniform((0.0, 0.0), (w, h), size=(n, 2))
        offsets = rng.normal(0.0, config.cluster_spread, size=(n, 2))
        pts = centers[idx] + offsets
        return np.clip(pts, (0.0, 0.0), (w, h))

    def too_close():
        dist = np.hypot(pts[:, None, 0] - edges[None, :, 0],
                        pts[:, None, 1] - edges[None, :, 1])
        return dist.min(axis=1) < config.min_edge_distance

    idx = np.arange(count)
    pts = draw(count, idx)
    if config.min_edge_distance > 0:
        for _ in range(_LOCATION_REDRAWS):
            bad = too_close()
            if not bad.any():
                return pts
            pts[bad] = draw(int(bad.sum()), idx[bad])
        if too_close().any():
            raise InvalidConfigError(
                f"min_edge_distance {config.min_edge_distance} leaves devices too "
                f"close to an edge server after {_LOCATION_REDRAWS} redraws"
            )
    return pts


def generate_random(seed: int, config: GeneratorConfig = GeneratorConfig()) -> Scenario:
    """Draw a scenario; a pure function of ``(seed, config)``.

    Devices are placed uniformly in the field (or clustered around per-DT
    centers when ``cluster_devices`` is set), ownership is uniform over DTs
    with empty DTs repaired by moving one random device each, and workloads
    are uniform over the configured range.
    """
    _check_config(config)
    rng = np.random.default_rng(seed)
    server_rng = rng if config.server_seed is None else np.random.default_rng(config.server_seed)

    s = config.num_edge_servers
    lo, hi = config.edge_clock_range
    clocks = server_rng.uniform(lo, hi, size=s)
    w, h = config.field_size
    edge_locations = server_rng.uniform((0.0, 0.0), (w, h), size=(s, 2))

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

    centers = None
    if config.cluster_devices:
        dt_centers = rng.uniform((0.0, 0.0), (w, h), size=(m, 2))
        centers = dt_centers[ownership]
    locations = _draw_locations(rng, n, config, edge_locations, centers)

    lo, hi = config.workload_range
    workloads = rng.uniform(lo, hi, size=n)
    if config.workload_in_megabytes:
        workloads = workloads * MEGABITS_PER_MEGABYTE

    servers = ServerPool(
        edge_clock_speeds=tuple(float(v) for v in clocks),
        cloud_clock_speed=float(config.cloud_clock_speed),
        edge_locations=tuple((float(x), float(y)) for x, y in edge_locations),
        edge_exec_energy=float(config.edge_exec_energy),
        cloud_exec_energy=float(config.cloud_exec_energy),
        edge_tx_energy=float(config.edge_tx_energy),
        cloud_tx_energy=float(config.cloud_tx_energy),
    )
    devices = DeviceSet(
        workloads=tuple(float(v) for v in workloads),
        locations=tuple((float(x), float(y)) for x, y in locations),
        bandwidths=tuple(float(config.bandwidth) for _ in range(n)),
        ownership=tuple(int(v) for v in ownership),
    )
    params = PhysicalParams(
        gamma=float(config.gamma),
        lambda_=float(config.lambda_),
        delta=float(config.delta),
        alpha=float(config.alpha),
    )
    return Scenario(servers, devices, params, num_dts=m, num_servers_total=s + 1)


def validate(s: Scenario) -> list[str]:
    """Report every invariant violation; an empty list means well-formed.

    Never raises: a malformed scenario yields messages, not exceptions.
    """
    out: list[str] = []
    pool, dev, par = s.servers, s.devices, s.params

    n_edge = len(pool.edge_clock_speeds)
    if len(pool.edge_locations) != n_edge:
        out.append("edge_locations length differs from edge_clock_speeds")
    for i, f in enumerate(pool.edge_clock_speeds):
        if not f > 0:
            out.append(f"non-positive edge clock speed at server {i}")
    if not pool.cloud_clock_speed > 0:
        out.append("non-positive cloud clock speed")
    for name in ("edge_exec_energy", "cloud_exec_energy", "edge_tx_energy", "cloud_tx_energy"):
        if not getattr(pool, name) > 0:
            out.append(f"non-positive {name}")

    n = len(dev.workloads)
    for name in ("locations", "bandwidths", "ownership"):
        if len(getattr(dev, name)) != n:
            out.append(f"{name} length differs from workloads")
    for i, w in enumerate(dev.workloads):
        if not w > 0:
            out.append(f"non-positive workload at device {i}")
    for i, b in enumerate(dev.bandwidths):
        if not b > 0:
            out.append(f"non-positive bandwidth at device {i}")

    owners = [int(g) for g in dev.ownership if isinstance(g, (int, np.integer))]
    for i, g in enumerate(dev.ownership):
        if not isinstance(g, (int, np.integer)) or not 0 <= g < s.num_dts:
            out.append(f"ownership out of range at device {i}")
    present = set(owners)
    for dt in range(s.num_dts):
        if dt not in present:
            out.append(f"empty DT {dt}")

    if s.num_dts < 1:
        out.append("num_dts out of range")
    elif owners and s.num_dts != max(present) + 1:
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


def to_document(s: Scenario) -> bytes:
    """Serialize to a stable JSON document (UTF-8 bytes)."""
    doc = {
        "format": DOCUMENT_FORMAT,
        "version": DOCUMENT_VERSION,
        "num_dts": s.num_dts,
        "num_servers_total": s.num_servers_total,
        "servers": {
            "edge_clock_speeds": list(s.servers.edge_clock_speeds),
            "cloud_clock_speed": s.servers.cloud_clock_speed,
            "edge_locations": [list(p) for p in s.servers.edge_locations],
            "edge_exec_energy": s.servers.edge_exec_energy,
            "cloud_exec_energy": s.servers.cloud_exec_energy,
            "edge_tx_energy": s.servers.edge_tx_energy,
            "cloud_tx_energy": s.servers.cloud_tx_energy,
        },
        "devices": {
            "workloads": list(s.devices.workloads),
            "locations": [list(p) for p in s.devices.locations],
            "bandwidths": list(s.devices.bandwidths),
            "ownership": list(s.devices.ownership),
        },
        "params": {
            "gamma": s.params.gamma,
            "lambda_": s.params.lambda_,
            "delta": s.params.delta,
            "alpha": s.params.alpha,
        },
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _get(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing field {path}{key}")
    return mapping[key]


def _floats(values, path):
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ParseError(f"field {path} must be a list of numbers") from None


def _coords(values, path):
    try:
        return tuple((float(x), float(y)) for x, y in values)
    except (TypeError, ValueError):
        raise ParseError(f"field {path} must be a list of [x, y] pairs") from None


def from_document(data: bytes | str) -> Scenario:
    """Parse a document produced by :func:`to_document`.

    Raises :class:`ParseError` for malformed input (with a location where the
    JSON parser provides one) and :class:`ValidationError`, listing every
    violation, when the parsed scenario breaks invariants.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid document at line {e.lineno} column {e.colno}: {e.msg}") from None

    for key, expected in (("format", DOCUMENT_FORMAT), ("version", DOCUMENT_VERSION)):
        if _get(doc, key, "") != expected:
            raise ParseError(f"unknown document {key} {doc[key]!r}, expected {expected!r}")
    srv = _get(doc, "servers", "")
    dev = _get(doc, "devices", "")
    par = _get(doc, "params", "")
    try:
        servers = ServerPool(
            edge_clock_speeds=_floats(_get(srv, "edge_clock_speeds", "servers."), "servers.edge_clock_speeds"),
            cloud_clock_speed=float(_get(srv, "cloud_clock_speed", "servers.")),
            edge_locations=_coords(_get(srv, "edge_locations", "servers."), "servers.edge_locations"),
            edge_exec_energy=float(_get(srv, "edge_exec_energy", "servers.")),
            cloud_exec_energy=float(_get(srv, "cloud_exec_energy", "servers.")),
            edge_tx_energy=float(_get(srv, "edge_tx_energy", "servers.")),
            cloud_tx_energy=float(_get(srv, "cloud_tx_energy", "servers.")),
        )
        devices = DeviceSet(
            workloads=_floats(_get(dev, "workloads", "devices."), "devices.workloads"),
            locations=_coords(_get(dev, "locations", "devices."), "devices.locations"),
            bandwidths=_floats(_get(dev, "bandwidths", "devices."), "devices.bandwidths"),
            ownership=tuple(int(v) for v in _get(dev, "ownership", "devices.")),
        )
        params = PhysicalParams(
            gamma=float(_get(par, "gamma", "params.")),
            lambda_=float(_get(par, "lambda_", "params.")),
            delta=float(_get(par, "delta", "params.")),
            alpha=float(_get(par, "alpha", "params.")),
        )
        scenario = Scenario(
            servers, devices, params,
            num_dts=int(_get(doc, "num_dts", "")),
            num_servers_total=int(_get(doc, "num_servers_total", "")),
        )
    except (TypeError, ValueError) as e:
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"malformed document: {e}") from None

    violations = validate(scenario)
    if violations:
        raise ValidationError(violations)
    return scenario
