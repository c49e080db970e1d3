"""Functional (data-holding) model of the HBM device.

The cycle simulation deals in timing only; this module provides the
*contents* view: a byte-addressable 8 GB space physically stored as 32
per-PCH arrays, accessed through any
:class:`~repro.core.address_map.AddressMap`.  It backs the data-integrity
property tests (whatever is written through one map is read back
identically, and the interleaved map really scatters bytes across
channels) and the functional examples.

Memory is allocated lazily per PCH in 1 MiB slabs so instantiating the
8 GB device costs nothing until data is touched.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .core.address_map import AddressMap, ContiguousMap
from .errors import AddressError
from .params import HbmPlatform, DEFAULT_PLATFORM

_SLAB_BYTES = 1 << 20


class HbmMemory:
    """Byte-addressable HBM contents behind an address map."""

    def __init__(
        self,
        address_map: Optional[AddressMap] = None,
        platform: HbmPlatform = DEFAULT_PLATFORM,
        fill: int = 0,
    ) -> None:
        self.platform = platform
        self.address_map = address_map or ContiguousMap(platform)
        if not 0 <= fill <= 0xFF:
            raise AddressError("fill byte must be 0..255")
        self._fill = fill
        #: (pch, slab_index) -> slab array.  Lazy allocation.
        self._slabs: Dict[tuple, np.ndarray] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    # -- slab plumbing -----------------------------------------------------------

    def _slab(self, pch: int, local: int) -> tuple:
        idx, offset = divmod(local, _SLAB_BYTES)
        key = (pch, idx)
        slab = self._slabs.get(key)
        if slab is None:
            slab = np.full(_SLAB_BYTES, self._fill, dtype=np.uint8)
            self._slabs[key] = slab
        return slab, offset

    @property
    def resident_bytes(self) -> int:
        """Physical memory actually allocated by the model."""
        return len(self._slabs) * _SLAB_BYTES

    def touched_pchs(self) -> set:
        """Pseudo-channels holding any written data."""
        return {pch for (pch, _idx) in self._slabs}

    # -- byte access ---------------------------------------------------------------

    def write(self, address: int, data: bytes | np.ndarray) -> None:
        """Write ``data`` at the global ``address`` through the map."""
        buf = np.frombuffer(bytes(data), dtype=np.uint8) \
            if not isinstance(data, np.ndarray) else data.astype(np.uint8, copy=False)
        n = len(buf)
        if n == 0:
            return
        if address < 0 or address + n > self.address_map.capacity:
            raise AddressError(
                f"write [{address:#x}, {address + n:#x}) out of range")
        pos = 0
        while pos < n:
            a = address + pos
            pch = self.address_map.pch_of(a)
            local = self.address_map.local_of(a)
            slab, offset = self._slab(pch, local)
            # Stay within this map chunk, slab, and the data.
            span = min(n - pos, _SLAB_BYTES - offset,
                       self._contiguous_span(a))
            slab[offset:offset + span] = buf[pos:pos + span]
            pos += span
        self.bytes_written += n

    def read(self, address: int, length: int) -> np.ndarray:
        """Read ``length`` bytes from the global ``address``."""
        if length < 0:
            raise AddressError("negative read length")
        if address < 0 or address + length > self.address_map.capacity:
            raise AddressError(
                f"read [{address:#x}, {address + length:#x}) out of range")
        out = np.empty(length, dtype=np.uint8)
        pos = 0
        while pos < length:
            a = address + pos
            pch = self.address_map.pch_of(a)
            local = self.address_map.local_of(a)
            slab, offset = self._slab(pch, local)
            span = min(length - pos, _SLAB_BYTES - offset,
                       self._contiguous_span(a))
            out[pos:pos + span] = slab[offset:offset + span]
            pos += span
        self.bytes_read += length
        return out

    def _contiguous_span(self, address: int) -> int:
        """Bytes from ``address`` that stay physically contiguous under
        the map (one interleave chunk, or unbounded for contiguous maps)."""
        gran = getattr(self.address_map, "granularity", None)
        if gran is None:
            return self.address_map.capacity - address
        return gran - address % gran

    # -- convenience ------------------------------------------------------------------

    def write_array(self, address: int, array: np.ndarray) -> None:
        """Write any numpy array's raw bytes."""
        self.write(address, np.ascontiguousarray(array).view(np.uint8).ravel())

    def read_array(self, address: int, shape, dtype) -> np.ndarray:
        """Read back an array written with :meth:`write_array`."""
        dt = np.dtype(dtype)
        count = int(np.prod(shape)) * dt.itemsize
        raw = self.read(address, count)
        return raw.view(dt).reshape(shape)
