"""Feature stores for pre-propagated (hop-wise) node features.

After preprocessing, PP-GNN training only needs the rows of the labeled nodes
(Section 6.4) but across ``K (R + 1)`` matrices — the input-expansion problem.
The store abstracts where those matrices live:

* :class:`HopFeatures` — the logical container (kernel-major, hop-major list
  of row-aligned matrices restricted to the labeled nodes);
* :class:`FeatureStore` — an optionally file-backed store that splits hops
  into separate ``.npy`` files (as the paper does to enable parallel storage
  reads for GDS) and memory-maps them on access.

Packed layout
-------------
Batch assembly is the hot path of PP-GNN training (Sections 4-5): every batch
must gather the same rows from all ``K (R + 1)`` matrices.  Both containers
therefore expose a *packed* view — a single contiguous
``(num_matrices, num_rows, F)`` array — so one ``np.take(..., axis=1, out=...)``
assembles every hop of a batch in a single kernel instead of ``K (R + 1)``
separate fancy-index gathers (see :mod:`repro.dataloading.loaders`).

File-backed stores support two on-disk layouts, selected by ``layout``:

* ``"hops"`` (default) — one ``hop_XX.npy`` per matrix, the paper's layout for
  parallel GDS reads;
* ``"packed"`` — a single ``packed.npy`` holding the ``(M, N, F)`` block so a
  memory-mapped :class:`~repro.dataloading.loaders.StorageLoader` can serve a
  chunk run with one contiguous read per matrix slab.

Either way a ``meta.json`` records ``(num_kernels, num_hops)`` so
:meth:`FeatureStore.load` restores the kernel-major structure instead of
collapsing multi-kernel stores into one kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.utils.logging import get_logger

logger = get_logger("prepropagation.store")

#: Supported on-disk layouts for file-backed stores.
STORE_LAYOUTS = ("hops", "packed")

_META_FILENAME = "meta.json"
_PACKED_FILENAME = "packed.npy"


def store_meta(
    layout: str,
    num_kernels: int,
    num_hops: int,
    num_rows: int,
    feature_dim: int,
    dtype,
) -> dict:
    """The ``meta.json`` schema every store writer must emit.

    Shared by :class:`FeatureStore` and the blocked propagation engine (which
    writes store files directly) so the two can never drift apart on the
    format :meth:`FeatureStore.load` expects.
    """
    return {
        "version": 2,
        "layout": layout,
        "num_kernels": int(num_kernels),
        "num_hops": int(num_hops),
        "num_rows": int(num_rows),
        "feature_dim": int(feature_dim),
        "dtype": str(np.dtype(dtype)),
    }


def _take_rows(packed: np.ndarray, row_indices: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``np.take`` over axis 1 with explicit bounds checking.

    ``mode="raise"`` (the default) combined with ``out=`` forces NumPy through
    a slow buffered path that defeats the point of the preallocated batch
    buffers, so bounds are validated once up front and the copy itself runs
    with ``mode="clip"`` — the fast zero-allocation kernel.
    """
    row_indices = np.asarray(row_indices, dtype=np.int64)
    if row_indices.size and (
        row_indices.min() < 0 or row_indices.max() >= packed.shape[1]
    ):
        raise IndexError(
            f"row indices out of range [0, {packed.shape[1]}) for packed gather"
        )
    return np.take(packed, row_indices, axis=1, out=out, mode="clip")


@dataclass
class HopFeatures:
    """Row-aligned hop-wise features for a fixed node set.

    ``matrices[k][r]`` is the ``(num_rows, F)`` array of hop-``r`` features
    under kernel ``k``; row ``i`` of every matrix refers to ``node_ids[i]``.
    """

    node_ids: np.ndarray
    matrices: List[List[np.ndarray]]
    _packed: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        if not self.matrices or not self.matrices[0]:
            raise ValueError("matrices must contain at least one kernel with one hop")
        rows = self.node_ids.shape[0]
        dims = {m.shape for kernel in self.matrices for m in kernel}
        if len({shape[1] for shape in dims}) != 1:
            raise ValueError("all hop matrices must share the feature dimension")
        for kernel in self.matrices:
            for matrix in kernel:
                if matrix.shape[0] != rows:
                    raise ValueError("hop matrices must align with node_ids")

    @property
    def num_rows(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def num_kernels(self) -> int:
        return len(self.matrices)

    @property
    def num_hops(self) -> int:
        """Number of propagation hops R (hop 0 is the raw features)."""
        return len(self.matrices[0]) - 1

    @property
    def feature_dim(self) -> int:
        return int(self.matrices[0][0].shape[1])

    def nbytes(self) -> int:
        return int(sum(m.nbytes for kernel in self.matrices for m in kernel))

    def hop_list(self) -> List[np.ndarray]:
        """Flatten to a list ordered kernel-major then hop (K*(R+1) items)."""
        return [m for kernel in self.matrices for m in kernel]

    def packed(self) -> np.ndarray:
        """Return (building lazily) the ``(num_matrices, num_rows, F)`` block.

        The packed array is bit-identical to ``np.stack(self.hop_list())`` and
        cached after the first call; it is what the optimized loaders gather
        from with a single ``np.take`` per batch.  After packing, ``matrices``
        is rebound to views into the block so the store is not held in memory
        twice (the original arrays are released once external references
        drop).
        """
        if self._packed is None:
            hops = self.hop_list()
            dtypes = {m.dtype for m in hops}
            if len(dtypes) != 1:
                raise ValueError(f"packed layout requires a uniform dtype, got {sorted(map(str, dtypes))}")
            self._packed = np.stack(hops, axis=0)
            per_kernel = len(self.matrices[0])
            self.matrices = [
                [self._packed[k * per_kernel + r] for r in range(per_kernel)]
                for k in range(self.num_kernels)
            ]
        return self._packed

    def gather(self, row_indices: np.ndarray) -> List[np.ndarray]:
        """Gather the given rows from every hop matrix (the batch-assembly op)."""
        row_indices = np.asarray(row_indices, dtype=np.int64)
        return [m[row_indices] for m in self.hop_list()]

    def gather_packed(self, row_indices: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather rows from all matrices with one fused ``np.take`` kernel.

        Returns the ``(num_matrices, len(row_indices), F)`` block; ``out``
        enables zero-allocation assembly into a preallocated batch buffer.
        """
        return _take_rows(self.packed(), row_indices, out)

    def restrict(self, row_indices: np.ndarray) -> "HopFeatures":
        """Return a new HopFeatures containing only ``row_indices`` rows."""
        row_indices = np.asarray(row_indices, dtype=np.int64)
        return HopFeatures(
            node_ids=self.node_ids[row_indices],
            matrices=[[m[row_indices] for m in kernel] for kernel in self.matrices],
        )

    @staticmethod
    def from_full_matrices(
        full_matrices: Sequence[Sequence[np.ndarray]], node_ids: np.ndarray
    ) -> "HopFeatures":
        """Slice full-graph propagation output down to the labeled ``node_ids``."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        return HopFeatures(
            node_ids=node_ids,
            matrices=[[np.asarray(m)[node_ids] for m in kernel] for kernel in full_matrices],
        )

    @staticmethod
    def from_packed(
        packed: np.ndarray, node_ids: np.ndarray, num_kernels: int
    ) -> "HopFeatures":
        """Rebuild the kernel-major structure from a ``(M, N, F)`` packed block."""
        packed = np.asarray(packed)
        if packed.ndim != 3:
            raise ValueError(f"packed block must be 3-D, got shape {packed.shape}")
        num_matrices = packed.shape[0]
        if num_kernels <= 0 or num_matrices % num_kernels:
            raise ValueError(
                f"{num_matrices} matrices cannot be split into {num_kernels} kernels"
            )
        per_kernel = num_matrices // num_kernels
        matrices = [
            [packed[k * per_kernel + r] for r in range(per_kernel)]
            for k in range(num_kernels)
        ]
        features = HopFeatures(node_ids=node_ids, matrices=matrices)
        if isinstance(packed, np.memmap):
            # keep memmap-backed blocks out of the cache: packed() should hand
            # the loaders an in-memory array for the RAM-resident fast path
            return features
        features._packed = packed
        return features


class FeatureStore:
    """Hop-major feature storage, in memory or backed by ``.npy`` files.

    File-backed mode mirrors the paper's storage layout for GDS training
    ("we split input features of different hops into separate files, enabling
    parallel storage access requests", Section 4.3); loading uses NumPy
    memory-mapping so only the touched rows are read from disk.  With
    ``layout="packed"`` the hops are instead written as one contiguous
    ``packed.npy`` so storage reads of a chunk run need a single request per
    matrix slab — the layout the optimized :class:`StorageLoader` memory-maps.
    """

    def __init__(
        self,
        hop_features: HopFeatures,
        root: Optional[Path] = None,
        layout: str = "hops",
    ) -> None:
        if layout not in STORE_LAYOUTS:
            raise ValueError(f"unknown store layout {layout!r}; expected one of {STORE_LAYOUTS}")
        self._features = hop_features
        self.root = Path(root) if root is not None else None
        self.layout = layout
        self._file_paths: list[Path] = []
        if self.root is not None:
            self._persist()

    # ------------------------------------------------------------------ #
    @property
    def node_ids(self) -> np.ndarray:
        return self._features.node_ids

    @property
    def num_rows(self) -> int:
        return self._features.num_rows

    @property
    def num_matrices(self) -> int:
        return len(self._features.hop_list())

    @property
    def num_kernels(self) -> int:
        return self._features.num_kernels

    @property
    def num_hops(self) -> int:
        return self._features.num_hops

    @property
    def feature_dim(self) -> int:
        return self._features.feature_dim

    @property
    def dtype(self) -> np.dtype:
        return self._features.matrices[0][0].dtype

    @property
    def is_file_backed(self) -> bool:
        return self.root is not None

    @property
    def has_packed_file(self) -> bool:
        """True when a single-file packed block exists on disk for memmapping."""
        return self.is_file_backed and self.layout == "packed"

    def nbytes(self) -> int:
        return self._features.nbytes()

    def file_paths(self) -> list[Path]:
        return list(self._file_paths)

    # ------------------------------------------------------------------ #
    def _meta(self) -> dict:
        return store_meta(
            layout=self.layout,
            num_kernels=self._features.num_kernels,
            num_hops=self._features.num_hops,
            num_rows=self._features.num_rows,
            feature_dim=self._features.feature_dim,
            dtype=self.dtype,
        )

    def _persist(self) -> None:
        assert self.root is not None
        self.root.mkdir(parents=True, exist_ok=True)
        self._file_paths = []
        if self.layout == "packed":
            path = self.root / _PACKED_FILENAME
            np.save(path, self._features.packed())
            self._file_paths.append(path)
        else:
            for idx, matrix in enumerate(self._features.hop_list()):
                path = self.root / f"hop_{idx:02d}.npy"
                np.save(path, matrix)
                self._file_paths.append(path)
        np.save(self.root / "node_ids.npy", self._features.node_ids)
        (self.root / _META_FILENAME).write_text(json.dumps(self._meta(), indent=2))
        logger.info(
            "persisted %d %s-layout file(s) to %s", len(self._file_paths), self.layout, self.root
        )

    def matrices(self, memmap: bool = False) -> List[np.ndarray]:
        """Return the flat list of hop matrices.

        ``memmap=True`` (only valid for file-backed stores) returns read-only
        memory-mapped arrays, modelling storage-resident data.
        """
        if memmap:
            if not self.is_file_backed:
                raise RuntimeError("memmap access requires a file-backed store")
            if self.layout == "packed":
                block = self.packed_matrix(memmap=True)
                return [block[m] for m in range(block.shape[0])]
            return [np.load(path, mmap_mode="r") for path in self._file_paths]
        return self._features.hop_list()

    def packed_matrix(self, memmap: bool = False) -> np.ndarray:
        """Return the contiguous ``(num_matrices, num_rows, F)`` block.

        ``memmap=True`` requires a file-backed store persisted with
        ``layout="packed"`` and returns the read-only mapped block.
        """
        if memmap:
            if not self.has_packed_file:
                raise RuntimeError(
                    "memmap packed access requires a file-backed store with layout='packed'"
                )
            return np.load(self.root / _PACKED_FILENAME, mmap_mode="r")
        return self._features.packed()

    def gather(self, row_indices: np.ndarray, memmap: bool = False) -> List[np.ndarray]:
        """Fetch the given rows from every hop matrix."""
        if memmap:
            return [np.asarray(m[np.asarray(row_indices)]) for m in self.matrices(memmap=True)]
        return self._features.gather(row_indices)

    def gather_packed(
        self,
        row_indices: np.ndarray,
        out: Optional[np.ndarray] = None,
        memmap: bool = False,
    ) -> np.ndarray:
        """Single-kernel gather of ``row_indices`` across all hop matrices.

        Returns (or fills ``out`` with) the ``(num_matrices, B, F)`` batch
        block; the fused fast path of the optimized loaders.
        """
        if memmap:
            return _take_rows(self.packed_matrix(memmap=True), row_indices, out)
        return self._features.gather_packed(row_indices, out=out)

    def iter_chunks(self, chunk_size: int) -> Iterator[tuple[np.ndarray, List[np.ndarray]]]:
        """Iterate (row_indices, hop matrices) over contiguous row chunks."""
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        for start in range(0, self.num_rows, chunk_size):
            rows = np.arange(start, min(start + chunk_size, self.num_rows))
            yield rows, self.gather(rows)

    @staticmethod
    def load(root: Path) -> "FeatureStore":
        """Re-open a store persisted by a previous run.

        Stores persisted with ``meta.json`` restore their kernel-major
        ``(num_kernels, num_hops)`` structure and on-disk layout; legacy
        stores (no metadata) fall back to a single-kernel interpretation.
        Hop matrices come back as read-only memory maps.
        """
        root = Path(root)
        node_ids = np.load(root / "node_ids.npy")
        meta_path = root / _META_FILENAME
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else None

        layout = meta["layout"] if meta else "hops"
        num_kernels = int(meta["num_kernels"]) if meta else 1
        # map rather than read, in either layout: storage-resident stores may
        # exceed host RAM, opening a store costs no pass over its bytes, and
        # in-memory consumers materialize lazily through packed()
        if layout == "packed":
            packed_path = root / _PACKED_FILENAME
            if not packed_path.exists():
                raise FileNotFoundError(f"no {_PACKED_FILENAME} found under {root}")
            packed = np.load(packed_path, mmap_mode="r")
            features = HopFeatures.from_packed(packed, node_ids, num_kernels=num_kernels)
            file_paths = [packed_path]
        else:
            hop_paths = sorted(root.glob("hop_*.npy"))
            if not hop_paths:
                raise FileNotFoundError(f"no hop files found under {root}")
            flat = [np.load(p, mmap_mode="r") for p in hop_paths]
            if len(flat) % num_kernels:
                raise ValueError(
                    f"{len(flat)} hop files under {root} do not divide into "
                    f"{num_kernels} kernels recorded in {_META_FILENAME}"
                )
            per_kernel = len(flat) // num_kernels
            matrices = [flat[k * per_kernel : (k + 1) * per_kernel] for k in range(num_kernels)]
            features = HopFeatures(node_ids=node_ids, matrices=matrices)
            file_paths = hop_paths
        store = FeatureStore.__new__(FeatureStore)
        store._features = features
        store.root = root
        store.layout = layout
        store._file_paths = file_paths
        return store
