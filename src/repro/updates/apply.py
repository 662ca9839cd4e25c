"""Crash-safe incremental re-propagation with versioned publish.

The update algorithm, end to end:

1. **Delta** — apply the edge/feature batch to the graph snapshot
   (:mod:`repro.updates.delta`).
2. **Frontier** — the affected node set by reverse r-hop expansion over the
   union of old/new operator supports (:mod:`repro.updates.frontier`).
3. **Patch** — recompute only the affected store rows
   (:func:`compute_patches`): per kernel, dependency sets are grown backwards
   hop by hop through :class:`~repro.graph.operators.PartialOperator` row
   extraction, then values flow forward through the same SpMM kernel, the
   same accumulation dtype and the same casts the blocked engine uses — so a
   patched row is **byte-identical** to a from-scratch re-propagation of the
   updated graph.
4. **Stage** — clone the current store version, write the patch rows through
   the blocked engine's row-run writer, journaling each phase with fsync'd
   digests (:class:`~repro.resilience.checkpoint.PhaseJournal`): a SIGKILL at
   any point resumes (trusted journal prefix) or rolls back (staging discard)
   with the published store untouched.
5. **Verify** — sampled patched rows are compared byte-for-byte against an
   *independent* restricted recompute, and sampled unpatched rows against the
   source version; any mismatch discards the staging state and raises
   :class:`~repro.updates.errors.UpdateVerificationError` — corrupt bytes are
   never published.
6. **Publish** — rename the staged store to ``vNNNN`` and atomically repoint
   ``CURRENT`` (:class:`~repro.updates.versions.VersionedStore`).  Readers
   pinned to the old version keep their bytes; new readers resolve the new
   one.

Every step but the clone costs O(delta): the store opens as read-only maps,
the graph is patched row by row, the frontier expands over cached reverses,
patches are computed in frontier-local buffers, and the run's identity
chains off the source version's recorded fingerprint instead of hashing the
graph (:func:`_update_fingerprint`).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph
from repro.graph.operators import PartialOperator
from repro.prepropagation.blocked import open_store_arrays, write_row_runs
from repro.prepropagation.propagator import PropagationConfig
from repro.prepropagation.store import FeatureStore, HopFeatures
from repro.resilience.checkpoint import (
    PhaseJournal,
    RunManifest,
    digest_array,
    digest_parts,
)
from repro.resilience.faultinject import FaultPlan, fault_point
from repro.updates.delta import GraphDelta, apply_delta, apply_features
from repro.updates.errors import UpdateError, UpdateVerificationError
from repro.updates.frontier import affected_frontier
from repro.updates.versions import VersionedStore
from repro.utils.logging import get_logger

logger = get_logger("updates.apply")

__all__ = ["UpdateResult", "apply_update", "apply_memory_update", "compute_patches"]

_UPDATE_INFO_FILENAME = "update.json"
_STAGED_STORE_DIRNAME = "store"


@dataclass
class UpdateResult:
    """Outcome of one :func:`apply_update` / :func:`apply_memory_update` call."""

    version: str
    previous_version: str
    status: str  # "applied" | "noop"
    affected_nodes: int
    patch_rows: np.ndarray
    resumed: bool
    verified: bool
    store: FeatureStore
    new_graph: CSRGraph
    new_features: np.ndarray
    timing: Dict[str, float] = field(default_factory=dict)
    #: per-engine swap failures collected by Session.apply_updates (the update
    #: itself succeeded; the named engines are serving the previous version)
    engine_errors: List[str] = field(default_factory=list)

    @property
    def patched_rows(self) -> int:
        return int(self.patch_rows.size)


class _PhaseClock:
    """Phase boundaries from one running clock, so the phases sum to the total."""

    def __init__(self) -> None:
        self.began = self.last = time.perf_counter()
        self.timing: Dict[str, float] = {}

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        key = f"{phase}_seconds"
        self.timing[key] = self.timing.get(key, 0.0) + now - self.last
        self.last = now

    def stop(self) -> Dict[str, float]:
        self.timing["total_seconds"] = self.last - self.began
        return self.timing


def _stored(node_ids: np.ndarray, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted ``nodes`` that have a store row, and those rows (O(nodes log N))."""
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    rows = np.searchsorted(node_ids, nodes)
    hit = rows < node_ids.size
    hit[hit] = node_ids[rows[hit]] == nodes[hit]
    return nodes[hit], rows[hit]


# --------------------------------------------------------------------------- #
def compute_patches(
    new_graph: CSRGraph,
    new_features: np.ndarray,
    config: PropagationConfig,
    node_ids: np.ndarray,
    target_nodes: np.ndarray,
    partials: Optional[Sequence[PartialOperator]] = None,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Recompute the store rows of ``target_nodes`` against the updated graph.

    Returns ``(patch_nodes, patch_rows, patches)``: the targeted nodes that
    are actually stored (sorted), their store-row indices, and one ``(P, F)``
    array per hop matrix in kernel-major order.  Per kernel the dependency
    sets are grown backwards (``D[h-1] ⊇`` the columns the operator rows of
    ``D[h]`` touch), then values flow forward hop by hop; every SpMM runs the
    same scipy kernel over byte-identical operator rows and byte-identical
    source values as a full blocked re-propagation, so the patches match a
    from-scratch rebuild bit for bit.

    Memory is frontier-local: hop ``h`` values live in a ``(|D[h]|, F)``
    buffer indexed by position in ``D[h]``, and the operator rows of ``D[h]``
    have their columns remapped (``searchsorted``) to positions in
    ``D[h-1]``.  Remapping changes no multiply-accumulate: each output row
    still sums the same products in the same storage order.

    ``partials`` lets callers share pre-built per-kernel
    :class:`PartialOperator` objects across calls (operator normalization is
    a pure function of the graph, so sharing cannot change any byte); the
    dependency expansion itself always runs fresh from ``target_nodes``.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    patch_nodes, patch_rows = _stored(node_ids, target_nodes)
    num_hops = config.num_hops
    dtype = np.dtype(config.dtype)
    accumulate_dtype = np.dtype(config.accumulate_dtype)
    patches: List[np.ndarray] = [
        np.empty((patch_nodes.size, new_features.shape[1]), dtype=dtype)
        for _ in range(config.num_matrices)
    ]
    if patch_nodes.size == 0:
        return patch_nodes, patch_rows, patches
    if partials is not None and len(partials) != config.num_kernels:
        raise ValueError(
            f"expected {config.num_kernels} partial operator(s), got {len(partials)}"
        )
    for k, name in enumerate(config.operators):
        if partials is not None:
            partial = partials[k]
        else:
            partial = PartialOperator(name, new_graph, **config.kwargs_for(k))
        # backward pass: D[h] = rows whose hop-h values the patch needs
        deps: List[np.ndarray] = [None] * (num_hops + 1)
        op_rows: List = [None] * (num_hops + 1)
        deps[num_hops] = patch_nodes
        for hop in range(num_hops, 0, -1):
            rows = partial.rows(deps[hop])
            deps[hop - 1] = np.union1d(patch_nodes, rows.indices)
            op_rows[hop] = sp.csr_matrix(
                (
                    rows.data.astype(accumulate_dtype, copy=False),
                    np.searchsorted(deps[hop - 1], rows.indices),
                    rows.indptr,
                ),
                shape=(deps[hop].size, deps[hop - 1].size),
            )
        # forward pass: hop h values of the new graph at exactly deps[h]
        values = new_features[deps[0]].astype(accumulate_dtype, copy=False)
        patches[k * (num_hops + 1)][:] = new_features[patch_nodes].astype(dtype, copy=False)
        for hop in range(1, num_hops + 1):
            values = op_rows[hop] @ values
            positions = np.searchsorted(deps[hop], patch_nodes)
            patches[k * (num_hops + 1) + hop][:] = values[positions].astype(dtype, copy=False)
    return patch_nodes, patch_rows, patches


def _update_fingerprint(
    source_fingerprint: str,
    source_version: str,
    delta_fingerprint: str,
    config: PropagationConfig,
    layout: str,
) -> str:
    """Identity of one update run: the source version's identity, the delta, the config.

    A chain, not a content hash: same source + same delta + same config ⇒
    same run (resumable, or already published).  Deltas have overwrite
    semantics, so a delta re-submitted against its own result is the same
    update and changes nothing.
    """
    return digest_parts(
        {
            "source": source_fingerprint,
            "source_version": source_version,
            "delta": delta_fingerprint,
            "num_hops": config.num_hops,
            "operators": ",".join(config.operators),
            "operator_kwargs": json.dumps(
                [config.kwargs_for(k) for k in range(config.num_kernels)], sort_keys=True
            ),
            "dtype": str(np.dtype(config.dtype)),
            "accumulate_dtype": str(np.dtype(config.accumulate_dtype)),
            "layout": layout,
        }
    )


def _content_fingerprint(
    graph: CSRGraph, features: np.ndarray, node_ids: np.ndarray, version: str
) -> str:
    """Digest of the snapshot a version without a recorded identity was built from.

    Only the base version (before its first update) or a version published
    without a lineage record needs one; it is recorded, so it is computed once.
    """
    return digest_parts(
        {
            "indptr": digest_array(graph.indptr),
            "indices": digest_array(graph.indices),
            "edge_weight": (
                "none" if graph.edge_weight is None else digest_array(graph.edge_weight)
            ),
            "features": digest_array(features),
            "node_ids": digest_array(node_ids),
            "version": version,
        }
    )


def _validate_config(store: FeatureStore, config: PropagationConfig, features: np.ndarray) -> None:
    problems = []
    if store.num_kernels != config.num_kernels:
        problems.append(f"kernels {store.num_kernels} != {config.num_kernels}")
    if store.num_hops != config.num_hops:
        problems.append(f"hops {store.num_hops} != {config.num_hops}")
    if store.feature_dim != features.shape[1]:
        problems.append(f"feature dim {store.feature_dim} != {features.shape[1]}")
    if store.dtype != np.dtype(config.dtype):
        problems.append(f"dtype {store.dtype} != {np.dtype(config.dtype)}")
    if problems:
        raise UpdateError(
            "propagation config does not match the published store: " + "; ".join(problems)
        )


def _fsync_file(path: Path) -> None:
    with open(path, "rb") as handle:
        os.fsync(handle.fileno())


def _journal_append(
    journal: PhaseJournal, entry: dict, fault_plan: Optional[FaultPlan]
) -> None:
    fault_point("update.journal", plan=fault_plan, phase=entry.get("phase"))
    journal.append(entry)


def _sample(rng: np.random.Generator, population: np.ndarray, count: int) -> np.ndarray:
    if population.size <= count:
        return population
    return np.sort(rng.choice(population, size=count, replace=False))


def _verify_staged(
    staged_store: Path,
    source_store: FeatureStore,
    new_graph: CSRGraph,
    new_features: np.ndarray,
    config: PropagationConfig,
    patch_nodes: np.ndarray,
    patch_rows: np.ndarray,
    verify_samples: int,
    fingerprint: str,
    partials: Optional[Sequence[PartialOperator]] = None,
) -> None:
    """Sampled byte-comparison of the staged store; raises on any mismatch.

    Patched rows are checked against an *independent* restricted recompute
    (fresh dependency expansion seeded only at the sampled nodes; the
    normalized operators may be shared with the patch phase — they are a pure
    function of the graph); unpatched rows against the source version.
    Deterministic: the sampling RNG is seeded from the run fingerprint.
    """
    rng = np.random.default_rng(int(fingerprint[:16], 16))
    staged_mats = FeatureStore.load(staged_store).matrices()
    node_ids = source_store.node_ids
    sample_nodes = _sample(rng, patch_nodes, max(1, verify_samples))
    check_nodes, check_rows, recomputed = compute_patches(
        new_graph, new_features, config, node_ids, sample_nodes, partials=partials
    )
    for m, matrix in enumerate(staged_mats):
        got = np.ascontiguousarray(matrix[check_rows])
        if got.tobytes() != np.ascontiguousarray(recomputed[m]).tobytes():
            raise UpdateVerificationError(
                f"staged matrix {m}: patched rows disagree with independent "
                f"recompute (sampled nodes {check_nodes.tolist()})"
            )
    unpatched = np.setdiff1d(np.arange(node_ids.size), patch_rows, assume_unique=True)
    sample_rows = _sample(rng, unpatched, max(1, verify_samples))
    if sample_rows.size:
        source_mats = source_store.matrices()
        for m, matrix in enumerate(staged_mats):
            got = np.ascontiguousarray(matrix[sample_rows])
            want = np.ascontiguousarray(source_mats[m][sample_rows])
            if got.tobytes() != want.tobytes():
                raise UpdateVerificationError(
                    f"staged matrix {m}: unpatched rows differ from source "
                    f"version (sampled store rows {sample_rows.tolist()})"
                )


# --------------------------------------------------------------------------- #
def _clone_source(
    source_root: Path, staged_store: Path, fault_plan: Optional[FaultPlan]
) -> Dict[str, int]:
    """Copy the source version into staging; fsync'd before being journaled."""
    fault_point("update.apply", plan=fault_plan, stage="clone")
    if staged_store.exists():
        shutil.rmtree(staged_store)
    shutil.copytree(source_root, staged_store)
    sizes: Dict[str, int] = {}
    for path in sorted(staged_store.iterdir()):
        if path.is_file():
            _fsync_file(path)
            sizes[path.name] = path.stat().st_size
    return sizes


def _clone_intact(staged_store: Path, journaled_sizes: Dict[str, int]) -> bool:
    if not (staged_store / "meta.json").exists():
        return False
    for name, size in journaled_sizes.items():
        path = staged_store / name
        if not path.is_file() or path.stat().st_size != int(size):
            return False
    return True


def _write_patches(
    staged_store: Path,
    patch_rows: np.ndarray,
    patches: Sequence[np.ndarray],
    trusted: Dict[int, str],
    journal: PhaseJournal,
    fault_plan: Optional[FaultPlan],
) -> None:
    """Write each hop matrix's patch rows unless the journal vouches for them."""
    matrices, memmaps = open_store_arrays(staged_store)
    written: List[int] = []
    for m, patch in enumerate(patches):
        digest = trusted.get(m)
        if digest is not None and digest_array(matrices[m][patch_rows]) == digest:
            continue  # journaled and intact: skip the write
        spec = fault_point("update.apply", plan=fault_plan, stage="patch", matrix=m)
        if spec is None or spec.kind != "leak":
            write_row_runs(matrices[m], patch_rows, patch)
        written.append(m)
    if written:
        # one msync for the whole batch — the packed layout backs every
        # matrix with a single memmap, so flushing inside the loop synced
        # the same file M times.  Entries are journaled only after the
        # flush, so a trusted digest always vouches for durable bytes.
        for memmapped in memmaps:
            memmapped.flush()
    for m in written:
        _journal_append(
            journal,
            {"phase": "patch", "matrix": m, "rows_digest": digest_array(matrices[m][patch_rows])},
            fault_plan,
        )


@dataclass
class _Staging:
    """What a resumable staging directory's journal already vouches for."""

    target: str
    clone_sizes: Optional[Dict[str, int]] = None
    patches: Dict[int, str] = field(default_factory=dict)
    renamed: bool = False


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _resumable(
    journal: PhaseJournal, info: Optional[dict], fingerprint: str, source_version: str
) -> Optional[_Staging]:
    """The journaled prefix of this exact run, or None if staging holds another run."""
    manifest = journal.load_manifest()
    if (
        manifest is None
        or info is None
        or manifest.fingerprint != fingerprint
        or info.get("source_version") != source_version
    ):
        return None
    staging = _Staging(target=str(info.get("target_version")))
    for entry in journal.entries():
        phase = entry.get("phase")
        if phase == "clone":
            staging.clone_sizes = entry.get("files", {})
        elif phase == "patch":
            staging.patches[int(entry["matrix"])] = entry.get("rows_digest", "")
        elif phase in ("rename", "publish"):
            staging.renamed = True
    return staging


def apply_update(
    root: Path,
    graph: CSRGraph,
    features: np.ndarray,
    delta: GraphDelta,
    config: PropagationConfig,
    *,
    resume: bool = True,
    verify_samples: int = 8,
    fault_plan: Optional[FaultPlan] = None,
) -> UpdateResult:
    """Apply one delta to the published store at ``root``, crash-safely.

    ``graph`` / ``features`` are the *pre-delta* snapshot the current store
    version was propagated from.  On success the new version is published and
    returned; on any failure the staging state either remains resumable
    (rerun with the same inputs to continue) or has been rolled back — the
    version readers see is never torn.

    An empty effective patch (the delta touches no stored row) is a
    ``status="noop"`` result: no new version is published.

    The run's identity chains off the current version's recorded identity
    (:func:`_update_fingerprint`).  If the current version already is this
    delta's result — the acknowledgement of a published update was lost, or
    the delta is re-submitted against its own result — that version is
    returned and nothing is published.  Every phase is timed off one clock:
    ``timing`` sums to ``total_seconds``.
    """
    clock = _PhaseClock()
    versions = VersionedStore(Path(root))
    source_version = versions.current_version()
    source_root = versions.path_for(source_version)
    source_store = FeatureStore.load(source_root)
    _validate_config(source_store, config, features)
    delta.validate_for(graph)
    node_ids = source_store.node_ids
    clock.lap("load")
    new_graph = apply_delta(graph, delta)
    new_features = apply_features(features, delta)
    clock.lap("delta")
    affected = affected_frontier(graph, new_graph, delta, config)
    patch_nodes, patch_rows = _stored(node_ids, affected)
    clock.lap("frontier")

    def result(version: str, previous: str, store: FeatureStore, resumed: bool) -> UpdateResult:
        noop = patch_rows.size == 0
        return UpdateResult(
            version=version,
            previous_version=previous,
            status="noop" if noop else "applied",
            affected_nodes=int(affected.size),
            patch_rows=patch_rows,
            resumed=resumed,
            verified=not noop,
            store=store,
            new_graph=new_graph,
            new_features=new_features,
            timing=clock.stop(),
        )

    if patch_rows.size == 0:
        return result(source_version, source_version, source_store, resumed=False)

    # ------------- identity: chained off the source version's record -------- #
    staging = versions.staging_root
    info_path = staging / _UPDATE_INFO_FILENAME
    info = _read_json(info_path)
    delta_fingerprint = delta.fingerprint()
    layout = source_store.layout
    record = versions.lineage().get(source_version)
    if record is not None and record["source_version"] is not None:
        this_update = _update_fingerprint(
            record["source_fingerprint"], record["source_version"], delta_fingerprint, config, layout
        )
        if record["fingerprint"] == this_update:
            # the current version is this very update's result: hand it
            # back, sweeping any staging leftover a crashed publisher kept
            if info is not None and info.get("target_version") == source_version:
                shutil.rmtree(staging, ignore_errors=True)
            clock.lap("fingerprint")
            return result(source_version, record["source_version"], source_store, resumed=True)
    if record is not None:
        source_fingerprint = record["fingerprint"]
    else:
        source_fingerprint = _content_fingerprint(graph, features, node_ids, source_version)
        versions.record_lineage(source_version, source_fingerprint)
    fingerprint = _update_fingerprint(
        source_fingerprint, source_version, delta_fingerprint, config, layout
    )
    clock.lap("fingerprint")

    # ------------- resume state: what does the journal already vouch for? --- #
    journal = PhaseJournal(staging)
    staged = _resumable(journal, info, fingerprint, source_version) if resume else None
    staged_store = staging / _STAGED_STORE_DIRNAME
    if (
        staged is not None
        and staged.renamed
        and not (staged_store / "meta.json").exists()
        and not (versions.path_for(staged.target) / "meta.json").exists()
    ):
        logger.warning("update: rename intent without store; restarting from clone")
        staged = None
    resumed = staged is not None and (staged.clone_sizes is not None or staged.renamed)
    if not resumed:
        if staging.exists():
            logger.info("update: discarding staging at %s", staging)
        journal.close()
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True, exist_ok=True)
        journal = PhaseJournal(staging)
        journal.write_manifest(
            RunManifest(
                fingerprint=fingerprint,
                layout=layout,
                num_kernels=config.num_kernels,
                num_hops=config.num_hops,
                num_rows=int(node_ids.size),
                feature_dim=int(features.shape[1]),
                dtype=np.dtype(config.dtype).str,
                accumulate_dtype=np.dtype(config.accumulate_dtype).str,
                block_size=0,
            )
        )
        staged = _Staging(target=versions.next_version())
        info_path.write_text(
            json.dumps(
                {"source_version": source_version, "target_version": staged.target}, indent=2
            )
        )
        _fsync_file(info_path)
    target = staged.target
    target_dir = versions.path_for(target)

    completed = False
    try:
        if staged.renamed and not (staged_store / "meta.json").exists():
            # renamed into place before the crash (the rename is atomic, so
            # the target is complete); only CURRENT and the cleanup remain
            fault_point("update.swap", plan=fault_plan, stage="current", target=target)
            versions.set_current(target)
        else:
            if staged.clone_sizes is not None and _clone_intact(staged_store, staged.clone_sizes):
                logger.info("update: resuming with intact staged clone at %s", staged_store)
            else:
                if staged.clone_sizes is not None:
                    logger.warning("update: journaled clone is damaged; recloning")
                    staged.patches = {}
                sizes = _clone_source(source_root, staged_store, fault_plan)
                _journal_append(journal, {"phase": "clone", "files": sizes}, fault_plan)
            clock.lap("clone")
            partials = [
                PartialOperator(name, new_graph, **config.kwargs_for(k))
                for k, name in enumerate(config.operators)
            ]
            _, _, patches = compute_patches(
                new_graph, new_features, config, node_ids, patch_nodes, partials=partials
            )
            _write_patches(staged_store, patch_rows, patches, staged.patches, journal, fault_plan)
            clock.lap("patch")
            try:
                _verify_staged(
                    staged_store,
                    source_store,
                    new_graph,
                    new_features,
                    config,
                    patch_nodes,
                    patch_rows,
                    verify_samples,
                    fingerprint,
                    partials=partials,
                )
            except UpdateVerificationError:
                journal.discard()
                shutil.rmtree(staging, ignore_errors=True)
                logger.warning("update: verification failed; staging rolled back")
                raise
            clock.lap("verify")
            versions.record_lineage(target, fingerprint, source_version, source_fingerprint)
            _journal_append(journal, {"phase": "rename", "target": target}, fault_plan)
            fault_point("update.swap", plan=fault_plan, stage="rename", target=target)
            versions.publish(staged_store, target)
        _journal_append(journal, {"phase": "publish", "target": target}, fault_plan)
        journal.discard()
        shutil.rmtree(staging, ignore_errors=True)
        clock.lap("publish")
        completed = True
    finally:
        journal.close()
        if not completed:
            logger.info("update: interrupted; resumable staging kept at %s", staging)

    update = result(target, source_version, FeatureStore.load(target_dir), resumed=resumed)
    logger.info(
        "update %s -> %s: %d affected node(s), %d store row(s) patched in %.3fs%s",
        source_version,
        target,
        affected.size,
        patch_rows.size,
        update.timing["total_seconds"],
        " [resumed]" if resumed else "",
    )
    return update


# --------------------------------------------------------------------------- #
def apply_memory_update(
    store: FeatureStore,
    graph: CSRGraph,
    features: np.ndarray,
    delta: GraphDelta,
    config: PropagationConfig,
    version: str = "mem",
) -> UpdateResult:
    """In-RAM variant for sessions without a persistent store root.

    Same delta/frontier/patch machinery and the same bit-identity guarantee,
    but no journal and no versioned swap — a crash simply loses the in-memory
    result (there is nothing durable to corrupt).  The returned store is a
    patched copy; the input store is never mutated.
    """
    _validate_config(store, config, features)
    delta.validate_for(graph)
    clock = _PhaseClock()
    new_graph = apply_delta(graph, delta)
    new_features = apply_features(features, delta)
    clock.lap("delta")
    affected = affected_frontier(graph, new_graph, delta, config)
    clock.lap("frontier")
    node_ids = store.node_ids
    patch_nodes, patch_rows, patches = compute_patches(
        new_graph, new_features, config, node_ids, affected
    )
    clock.lap("patch")
    new_store = store
    if patch_nodes.size:
        packed = np.array(store.packed_matrix(), copy=True)
        for m, patch in enumerate(patches):
            packed[m][patch_rows] = patch
        hop_features = HopFeatures.from_packed(
            packed, node_ids.copy(), num_kernels=store.num_kernels
        )
        new_store = FeatureStore(hop_features, root=None, layout=store.layout)
        clock.lap("clone")
    return UpdateResult(
        version=version,
        previous_version=version,
        status="applied" if patch_nodes.size else "noop",
        affected_nodes=int(affected.size),
        patch_rows=patch_rows,
        resumed=False,
        verified=False,
        store=new_store,
        new_graph=new_graph,
        new_features=new_features,
        timing=clock.stop(),
    )
