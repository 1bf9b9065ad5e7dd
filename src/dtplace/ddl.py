"""Self-labeling ensemble policy for DT placement.

K sibling networks share one feature extractor and each proposes a complete
placement for a scenario.  The proposals are priced from the scenario's
per-twin cost table and :func:`choose`, the one best-of-K path, keeps the
cheapest; for a training scenario it becomes the label, and the pair is
pushed into a bounded FIFO replay database.
Once the database is full, every iteration also draws K independent
minibatches: each network trains on its own batch, while the shared
extractor takes a single step on the average of the K gradients flowing
back through it.  No externally labeled data is
involved at any point; the ensemble bootstraps from its own best guesses.

The networks and the replay database hold float32, which halves the bytes
each replay update moves; those updates take most of a training run.  The
cost model, the cost tables and every reported cost stay float64.

Every architecture is fixed: the extractor's is ``EXTRACTOR_ARCH``, and
the K decision networks share the one ``dnn_arch(num_dts, num_servers)``
builds from ``HIDDEN_SIZES``.  The ensemble owns the one learning rate and
the one update count that every Adam step takes.  An ensemble is built from
the networks' stack: three ``(K, P)`` arrays that hold their flat
parameters and Adam moments, one network per row.  Its constructor is the
one place that checks the stack's shape against ``dnn_arch``.  It keeps
the arrays it is given and makes ``dnns[k]`` an ordinary
:class:`MlpModel` on row ``k``.  A proposal runs all K networks at once
through ``neural.feed_forward``, the layer loop every network runs, over
the stack's layer views, while the replay update still runs every
network's backward pass and Adam step on its own; those were measured
slower when stacked.  ``build_ensemble`` draws each network straight into
its row.  A checkpoint is a header of the shape, the update count and the
learning rate, beside the extractor's three flat vectors and the stack as
it is; ``load_ensemble`` keeps the arrays it reads as the stack.  An
ensemble copies and pickles as its checkpoint, so a copy gets a stack of
its own.

Placements are emitted as bits: each DT gets ``ceil(log2(R))`` sigmoid
outputs, thresholded at 0.5 and read as a big-endian code modulo the server
count R.  Labels are the plain binary expansion of the chosen server index.
"""

from __future__ import annotations

import json
import time
import zipfile
from dataclasses import dataclass, field
from math import ceil, isfinite, log2

import numpy as np

from .cost_model import CostBreakdown, Decision, evaluate, per_dt_cost_table
from .errors import ContractError, InvalidConfigError, SlotCapacityError
from .exact import SchemeResult
from .neural import Activation, MlpArch, MlpModel, feed_forward, init_random, layer_views
from .scenario import BANDWIDTH, FIELD_SIZE, MEGABITS_PER_MEGABYTE, WORKLOAD_RANGE
from .scenario import GeneratorConfig, Scenario, generate_random

ENSEMBLE_FORMAT = "dtplace-ensemble"
ENSEMBLE_VERSION = 5
NETWORK_DTYPE = np.float32

# Each twin is flattened into SLOTS rows of (workload, x, y, bandwidth),
# members first in a canonical order, zero rows after.  The scales are the
# generator's bounds, so a generated scenario's entries lie in [0, 1]; the
# bandwidth column doubles as an occupancy flag because real devices always
# have positive bandwidth.  SLOTS bounds the devices one twin may own, with
# slack over the expected maximum occupancy (24 covers 120 devices over 15
# twins with room to spare).
SLOTS = 24
WORKLOAD_SCALE = WORKLOAD_RANGE[1] * MEGABITS_PER_MEGABYTE
COORD_SCALE = FIELD_SIZE
BANDWIDTH_SCALE = BANDWIDTH
_FEATURES_PER_DEVICE = 4  # workload, x, y, bandwidth
_SCALES = np.array([WORKLOAD_SCALE, *COORD_SCALE, BANDWIDTH_SCALE])
INPUT_WIDTH = SLOTS * _FEATURES_PER_DEVICE

# Extractor layer widths.  Its last layer is identity: unbounded embeddings
# stay informative once training drives the extractor far from
# initialization, where a squashed head could saturate and leave the
# decision networks blind to the scenario.
EMBEDDING_SIZES = (32, 8)
EXTRACTOR_ARCH = MlpArch(
    sizes=(INPUT_WIDTH, *EMBEDDING_SIZES),
    activations=(Activation.RELU,) * (len(EMBEDDING_SIZES) - 1) + (Activation.IDENTITY,),
)
# Hidden layer widths of every decision network.
HIDDEN_SIZES = (128, 64)


def raw_group_input(s: Scenario) -> np.ndarray:
    """Per-DT raw feature rows, shape ``(num_dts, INPUT_WIDTH)``.

    Members are sorted by (workload, x, y), ties kept in device order, so the
    encoding does not depend on device enumeration order.
    """
    dev = s.devices
    counts = np.bincount(dev.ownership, minlength=s.num_dts)
    over = np.flatnonzero(counts > SLOTS)
    if over.size:
        raise SlotCapacityError(
            f"DT {over[0]} owns {counts[over[0]]} devices but the encoding has {SLOTS} slots"
        )
    order = np.lexsort((dev.locations[:, 1], dev.locations[:, 0], dev.workloads, dev.ownership))
    owner = dev.ownership[order]
    # members of one twin are contiguous in ``order``; a member's slot is its
    # offset from the twin's first position
    slot = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    out = np.zeros((s.num_dts, SLOTS, _FEATURES_PER_DEVICE))
    out[owner, slot] = np.column_stack((dev.workloads, dev.locations, dev.bandwidths))[order] / _SCALES
    return out.reshape(s.num_dts, INPUT_WIDTH)


def bits_per_dt(num_servers: int) -> int:
    if num_servers < 1:
        raise ContractError("num_servers must be at least 1")
    return max(1, ceil(log2(num_servers)))


def dnn_arch(num_dts: int, num_servers: int) -> MlpArch:
    """The decision networks' architecture: ``num_dts`` embeddings in, every twin's code bits out."""
    return MlpArch(
        sizes=(num_dts * EMBEDDING_SIZES[-1], *HIDDEN_SIZES, num_dts * bits_per_dt(num_servers)),
        activations=(Activation.RELU,) * len(HIDDEN_SIZES) + (Activation.SIGMOID,),
    )


def decode_codes(outputs: np.ndarray, num_dts: int, num_servers: int) -> np.ndarray:
    """Threshold sigmoid outputs into server indices, shape ``(batch, num_dts)``.

    Each DT's bits read as a big-endian integer; values past the server count
    wrap via modulo, so every bit pattern decodes to a valid placement.
    """
    bits = bits_per_dt(num_servers)
    out = np.asarray(outputs)
    if out.ndim != 2 or out.shape[1] != num_dts * bits:
        raise ContractError(
            f"expected a batch of {num_dts * bits} outputs for {num_dts} DTs, got shape {out.shape}"
        )
    raised = (out.reshape(out.shape[0], num_dts, bits) > 0.5).astype(np.int64)
    weights = 1 << np.arange(bits - 1, -1, -1, dtype=np.int64)
    return (raised @ weights) % num_servers


def encode_decision(d: Decision, num_servers: int) -> np.ndarray:
    """Target bit vector whose decode is ``d``: the inverse of ``decode_codes``."""
    shifts = np.arange(bits_per_dt(num_servers) - 1, -1, -1)
    assignment = np.asarray(d.assignment, dtype=np.int64)
    bad = np.flatnonzero((assignment < 0) | (assignment >= num_servers))
    if bad.size:
        raise ContractError(f"server index {assignment[bad[0]]} out of range at DT {bad[0]}")
    return ((assignment[:, None] >> shifts) & 1).ravel().astype(np.float64)


class ReplayDatabase:
    """Bounded FIFO store of (state, target) pairs; inserts evict the oldest."""

    def __init__(self, capacity: int, state_shape: tuple[int, ...], target_width: int):
        if capacity < 1:
            raise ContractError("capacity must be at least 1")
        self._states = np.zeros((capacity, *state_shape), dtype=NETWORK_DTYPE)
        self._targets = np.zeros((capacity, target_width), dtype=NETWORK_DTYPE)
        self._next = 0
        self._count = 0

    @property
    def capacity(self) -> int:
        return self._states.shape[0]

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count == self.capacity

    def insert(self, state: np.ndarray, target: np.ndarray) -> None:
        state = np.asarray(state)
        target = np.asarray(target)
        if state.shape != self._states.shape[1:] or target.shape != self._targets.shape[1:]:
            raise ContractError("entry shape does not match the database")
        self._states[self._next] = state
        self._targets[self._next] = target
        self._next = (self._next + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        """Uniform sample with replacement over the stored entries."""
        if self._count == 0:
            raise ContractError("cannot sample from an empty database")
        idx = rng.integers(0, self._count, size=batch_size)
        return self._states[idx], self._targets[idx]


_FLAT = ("params", "m", "v")


@dataclass(eq=False)
class DdlEnsemble:
    """Shared feature extractor plus K sibling placement networks.

    ``stack`` is the ``(params, m, v)`` triple of ``(K, P)`` arrays, K >= 1,
    whose row ``k`` holds network ``k``'s flat parameters and Adam moments
    (see the module docstring); every network has the architecture
    ``dnn_arch``, derived from ``num_dts`` and ``num_servers``, and P is its
    ``num_params``.  ``dnns[k]`` is the model on row ``k``, and
    ``stack_views`` the stack's ``layer_views``, which ``propose_batch``
    runs.  ``step`` counts the replay updates, each one Adam step at
    ``learning_rate`` of every network and of the extractor.  A stack that
    is not three such ``(K, P)`` arrays with K >= 1, or whose rows
    :class:`MlpModel` refuses, raises ``ContractError``.
    """

    num_dts: int
    num_servers: int
    learning_rate: float
    extractor: MlpModel
    stack: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    step: int = 0
    dnn_arch: MlpArch = field(init=False, repr=False)
    dnns: tuple[MlpModel, ...] = field(init=False, repr=False)
    stack_views: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.dnn_arch = dnn_arch(self.num_dts, self.num_servers)
        params, m, v = self.stack
        shape = np.shape(params)
        num_params = self.dnn_arch.num_params
        if not (len(shape) == 2 and shape[0] >= 1 and shape[1] == num_params
                and np.shape(m) == shape == np.shape(v)):
            raise ContractError(
                f"an ensemble's stack must be three (K, P) arrays with K >= 1 and P = {num_params}, "
                f"the networks that place {self.num_dts} twins on {self.num_servers} servers"
            )
        self.dnns = tuple(
            MlpModel(self.dnn_arch, row, m_row, v_row) for row, m_row, v_row in zip(params, m, v)
        )
        self.stack_views = layer_views(self.dnn_arch, params)

    def __reduce__(self):
        # copies (pickle, copy.copy, copy.deepcopy) go through the checkpoint; the arrays are
        # copied here because _from_checkpoint keeps the ones it is handed as the stack
        header, arrays = _checkpoint(self)
        return _from_checkpoint, (header, {key: a.copy() for key, a in arrays.items()})

    @property
    def num_dnns(self) -> int:
        return len(self.dnns)


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on; two equal configs train equally."""

    iterations: int
    num_dnns: int = 12
    learning_rate: float = 1e-3
    db_capacity: int = 1024
    batch_size: int = 128
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    seed: int = 0


def _check_config(c: TrainConfig) -> None:
    if c.iterations < 0:
        raise InvalidConfigError("iterations must not be negative")
    if c.num_dnns < 1:
        raise InvalidConfigError("num_dnns must be at least 1")
    if not (c.learning_rate > 0 and isfinite(c.learning_rate)):
        raise InvalidConfigError("learning_rate must be positive and finite")
    if c.db_capacity < 1 or c.batch_size < 1:
        raise InvalidConfigError("db_capacity and batch_size must be at least 1")
    if c.batch_size > c.db_capacity:
        raise InvalidConfigError("batch_size cannot exceed db_capacity")


def build_ensemble(config: TrainConfig) -> DdlEnsemble:
    """Fresh ensemble for the generator's shape.

    Network seeds derive sequentially from ``config.seed``, so ensembles that
    differ only in ``num_dnns`` agree on their common prefix of networks.
    Weights are drawn in float64 and stored as ``NETWORK_DTYPE``.
    """
    _check_config(config)
    gen = config.generator
    num_servers = gen.num_edge_servers + 1
    dnn = dnn_arch(gen.num_dts, num_servers)
    seeds = np.random.default_rng(config.seed)

    def draw(arch: MlpArch) -> np.ndarray:
        return init_random(arch, seed=int(seeds.integers(2 ** 63))).params

    extractor = MlpModel(EXTRACTOR_ARCH, draw(EXTRACTOR_ARCH).astype(NETWORK_DTYPE))
    params = np.empty((config.num_dnns, dnn.num_params), NETWORK_DTYPE)
    for row in params:
        row[...] = draw(dnn)
    stack = (params, np.zeros_like(params), np.zeros_like(params))
    # a Python float: a NumPy scalar would promote the float32 Adam arithmetic to float64
    learning_rate = float(config.learning_rate)
    return DdlEnsemble(gen.num_dts, num_servers, learning_rate, extractor, stack)


def propose_batch(ensemble: DdlEnsemble, raw_batch: np.ndarray) -> np.ndarray:
    """Placements from every network for a batch of raw inputs.

    ``raw_batch`` is ``(batch, num_dts, INPUT_WIDTH)``; the result holds
    server indices with shape ``(num_dnns, batch, num_dts)``.
    """
    raw = np.asarray(raw_batch)
    if raw.ndim != 3 or raw.shape[1:] != (ensemble.num_dts, INPUT_WIDTH):
        raise ContractError("raw input shape does not match the ensemble")
    b, m, width = raw.shape
    emb = ensemble.extractor.forward(raw.reshape(b * m, width)).reshape(b, -1)
    out = feed_forward(emb, *ensemble.stack_views, ensemble.dnn_arch.activations)
    k = out.shape[0]
    return decode_codes(out.reshape(k * b, -1), m, ensemble.num_servers).reshape(k, b, m)


def choose(ensemble: DdlEnsemble, tables: np.ndarray, raw_batch: np.ndarray):
    """Cheapest of the K proposals for each scenario, lowest network index on ties.

    ``tables`` stacks the scenarios' per-twin cost tables, ``(count, num_dts,
    num_servers)``, and ``raw_batch`` their raw inputs.  A proposal's cost is a
    gather from its table.  Returns the winner ``(count,)``, its codes
    ``(count, num_dts)`` and its gathered cost ``(count,)``.
    """
    if tables.shape != (len(raw_batch), ensemble.num_dts, ensemble.num_servers):
        raise ContractError(f"cost tables of shape {tables.shape} do not match {ensemble.num_dts} twins, "
                            f"{ensemble.num_servers} servers and a raw batch of {len(raw_batch)}")
    codes = propose_batch(ensemble, raw_batch)
    rows, twins = np.arange(len(tables)), np.arange(ensemble.num_dts)
    costs = tables[rows[:, None, None], twins[:, None], codes.transpose(1, 2, 0)].sum(axis=1)
    winner = costs.argmin(axis=1)
    return winner, codes[winner, rows], costs[rows, winner]


@dataclass(frozen=True)
class Proposal:
    decision: Decision
    breakdown: CostBreakdown
    dnn_index: int

    @property
    def cost(self) -> float:
        return self.breakdown.weighted_cost


def _choose(ensemble: DdlEnsemble, s: Scenario, raw: np.ndarray) -> Proposal:
    winner, codes, _ = choose(ensemble, per_dt_cost_table(s)[None], raw[None])
    decision = Decision(tuple(codes[0].tolist()))
    # The reported cost comes from the evaluator, not the gathered sum: the
    # two may differ in the last bit, and training traces record this one.
    return Proposal(decision, evaluate(s, decision), int(winner[0]))


def best_of_k(ensemble: DdlEnsemble, s: Scenario) -> Proposal:
    """Cheapest of the K proposed placements, lowest network index on ties."""
    return _choose(ensemble, s, raw_group_input(s))


def infer(ensemble: DdlEnsemble, s: Scenario) -> SchemeResult:
    """Place one scenario; the returned breakdown comes from the evaluator."""
    start = time.perf_counter()
    choice = best_of_k(ensemble, s)
    return SchemeResult(choice.decision, choice.breakdown, "ddl", time.perf_counter() - start)


@dataclass(frozen=True)
class TrainingTrace:
    """One training iteration: the self-label's cost and per-network losses.

    Losses are NaN until the replay database fills and updates begin.
    """

    iteration: int
    chosen_q: float
    chosen_dnn: int
    losses: tuple[float, ...]


@dataclass
class TrainResult:
    ensemble: DdlEnsemble
    traces: list[TrainingTrace]


def train(config: TrainConfig, callback=None) -> TrainResult:
    """Run the self-labeling loop for ``config.iterations`` scenarios.

    Each iteration draws a fresh scenario, picks the cheapest of the K
    proposals as its label, and stores the pair.  Once the database is full,
    every network trains on its own minibatch and the shared extractor takes
    one step on the K-average of the gradients reaching it.  ``callback``,
    when given, is invoked as ``callback(completed_iterations, ensemble)``
    at zero and after every iteration; zero iterations return the fresh
    ensemble and no traces.
    """
    ensemble = build_ensemble(config)
    bits = bits_per_dt(ensemble.num_servers)
    db = ReplayDatabase(
        config.db_capacity,
        state_shape=(ensemble.num_dts, INPUT_WIDTH),
        target_width=ensemble.num_dts * bits,
    )

    # Separate streams keep scenario draws unaffected by sampling draws.
    root = np.random.default_rng(config.seed)
    scenario_seeds = np.random.default_rng(int(root.integers(2 ** 63)))
    sample_rng = np.random.default_rng(int(root.integers(2 ** 63)))

    traces: list[TrainingTrace] = []
    if callback is not None:
        callback(0, ensemble)

    for it in range(config.iterations):
        s = generate_random(int(scenario_seeds.integers(2 ** 63)), config.generator)
        raw = raw_group_input(s)
        choice = _choose(ensemble, s, raw)
        db.insert(raw, encode_decision(choice.decision, ensemble.num_servers))

        losses = [float("nan")] * ensemble.num_dnns
        if db.full:
            losses = _update(ensemble, db, sample_rng, config.batch_size)

        traces.append(TrainingTrace(it, choice.cost, choice.dnn_index, tuple(losses)))
        if callback is not None:
            callback(it + 1, ensemble)
    return TrainResult(ensemble, traces)


def _update(ensemble, db, rng, batch_size) -> list[float]:
    """One training step: per-network batches, the extractor on the K-average of its flat gradients."""
    ext = ensemble.extractor
    m, width = ensemble.num_dts, INPUT_WIDTH
    ensemble.step += 1
    ext_sum = None
    losses = []
    for dnn in ensemble.dnns:
        states, targets = db.sample(rng, batch_size)
        flat = states.reshape(batch_size * m, width)
        emb, activations = ext.forward(flat, keep=True)
        result = dnn.backward(emb.reshape(batch_size, -1), targets)
        dnn.adam_step(result.gradient, ensemble.step, ensemble.learning_rate)
        upstream = result.input_gradient.reshape(batch_size * m, -1)
        back = ext.backward_from_output(upstream, activations)
        if ext_sum is None:
            ext_sum = back  # not zeros + back, which would turn -0.0 into +0.0
        else:
            ext_sum += back
        losses.append(result.loss)
    ext.adam_step(ext_sum / ensemble.num_dnns, ensemble.step, ensemble.learning_rate)
    return losses


def _checkpoint(ensemble: DdlEnsemble) -> tuple[dict, dict[str, np.ndarray]]:
    """``ensemble`` as a JSON-ready header and named arrays that view its vectors.

    The header holds the shape, the update count ``step`` and the ``learning_rate``;
    ``ext.params``, ``ext.m`` and ``ext.v`` are the extractor's vectors, and
    ``dnn.params``, ``dnn.m`` and ``dnn.v`` the stack.
    """
    header = {
        "format": ENSEMBLE_FORMAT,
        "version": ENSEMBLE_VERSION,
        "num_dts": ensemble.num_dts,
        "num_servers": ensemble.num_servers,
        "step": ensemble.step,
        "learning_rate": ensemble.learning_rate,
    }
    ext = ensemble.extractor
    arrays = {f"ext.{name}": getattr(ext, name) for name in _FLAT}
    arrays.update({f"dnn.{name}": a for name, a in zip(_FLAT, ensemble.stack)})
    return header, arrays


def _header_count(header: dict, key: str, least: int) -> int:
    """The header's ``key``, refused unless an ``int`` (not a ``bool``) of at least ``least``."""
    value = header.get(key)
    if type(value) is not int or value < least:
        raise ContractError(f"not an ensemble checkpoint: {key} {value!r} is not a count "
                            f"of at least {least}")
    return value


def _from_checkpoint(header: dict, arrays) -> DdlEnsemble:
    """The ensemble ``_checkpoint`` described; ``dnn.params``, ``dnn.m`` and ``dnn.v`` are its stack.

    The arrays are kept, not copied: ``arrays`` may be an open ``np.load``
    archive, whose every read is a fresh array.  A ``learning_rate`` that is
    not a positive finite float raises ``ContractError``, and so does any
    refusal of the extractor's vectors by :class:`MlpModel` or of the stack
    by :class:`DdlEnsemble`, each as "not an ensemble checkpoint".
    """
    num_dts = _header_count(header, "num_dts", 1)
    num_servers = _header_count(header, "num_servers", 1)
    step = _header_count(header, "step", 0)
    learning_rate = header.get("learning_rate")
    if type(learning_rate) is not float or not (learning_rate > 0 and isfinite(learning_rate)):
        raise ContractError(f"not an ensemble checkpoint: learning_rate {learning_rate!r} is not "
                            "a positive finite float")
    ext, stack = ([np.asarray(arrays[f"{net}.{name}"]) for name in _FLAT] for net in ("ext", "dnn"))
    try:
        extractor = MlpModel(EXTRACTOR_ARCH, *ext)
        return DdlEnsemble(num_dts, num_servers, learning_rate, extractor, tuple(stack), step)
    except ContractError as e:
        raise ContractError(f"not an ensemble checkpoint: {e}") from e


def save_ensemble(path, ensemble: DdlEnsemble) -> None:
    """Single-file checkpoint of the extractor and all K networks."""
    header, arrays = _checkpoint(ensemble)
    with open(path, "wb") as f:
        np.savez(f, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays)


def load_ensemble(path) -> DdlEnsemble:
    """The ensemble ``save_ensemble`` wrote; any other file raises ``ContractError``."""
    try:
        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            if not isinstance(header, dict) or header.get("format") != ENSEMBLE_FORMAT:
                raise ContractError("not an ensemble checkpoint: wrong format")
            if header.get("version") != ENSEMBLE_VERSION:
                raise ContractError(
                    f"ensemble checkpoint version {header.get('version')!r} is not "
                    f"the supported version {ENSEMBLE_VERSION}"
                )
            return _from_checkpoint(header, data)
    except ContractError:
        raise
    except (KeyError, TypeError, ValueError, EOFError, RecursionError, zipfile.BadZipFile) as e:
        raise ContractError(f"not an ensemble checkpoint: {e}") from e
