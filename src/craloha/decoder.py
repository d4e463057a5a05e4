"""Bounded receiver slot memory and the iterative peeling IC process.

The gateway ingests one slot at a time and at each slot end peels: any slot
holding exactly one instance of a still-restorable packet resolves that
packet, whose replicas are then cancelled from every slot, possibly
cascading. A packet past its deadline is lost for good, and its remaining
instances stay in their slots as uncancellable interference.

One heap-ordered count/XOR slot loop decodes a whole run: each slot keeps
its number of undecoded instances and the XOR of their packet ids, so a
singleton slot names its packet; ``peel`` checks its input in numpy first.
The loop lives in ``peel.c`` beside the replica placement of
``craloha.placement``, compiled on first import with sysconfig's C compiler
into ``__pycache__`` and loaded once with ``ctypes``.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import NamedTuple

import numpy as np


def _load_kernel():
    """The compiled loops, built first if no library of this source exists."""
    # Named by the source's CRC-32 and the interpreter's EXT_SUFFIX (the
    # first extension suffix), so an edited source never loads a stale build.
    src = Path(__file__).with_name("peel.c")
    lib = src.with_name("__pycache__") / f"peel.{zlib.crc32(src.read_bytes()):08x}{EXTENSION_SUFFIXES[0]}"
    if not lib.exists():
        import shlex  # once per edit of the source, not per import
        import subprocess
        import sysconfig

        # Concurrent importers each compile to their own file and rename it
        # into place, so the library's name never refers to a partial file.
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        cc = shlex.split(sysconfig.get_config_var("CC") or "")
        cmd = [*cc, "-O2", "-shared", "-fPIC", "-o", str(tmp), str(src)]
        try:
            lib.parent.mkdir(exist_ok=True)
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode:
                raise OSError(proc.stderr.strip())
            os.replace(tmp, lib)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise ImportError(f"craloha.decoder needs a C compiler; `{shlex.join(cmd)}` failed: {exc}") from None
    kernel = ctypes.CDLL(str(lib))
    ints, i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS"), ctypes.c_int64
    out = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")
    flags = np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS,WRITEABLE")
    kernel.craloha_place.argtypes = [ints, ints, ints, i64, i64, i64, ctypes.c_void_p, i64, out, out, out, out]
    kernel.craloha_place.restype = None
    kernel.craloha_peel.argtypes = [ints, ints, ints, i64, i64, i64, i64, out, out, out, out, out, flags]
    kernel.craloha_peel.restype = i64
    return kernel


_kernel = _load_kernel()


class PeelOutcome(NamedTuple):
    """Per-packet result of one ``peel`` call, indexed by packet id."""

    decode_slots: np.ndarray  # slot at whose end the packet resolved; -1 if not decoded
    order: np.ndarray  # decoded packet ids in resolution order
    clean: np.ndarray  # resolved from a slot that held one instance when ingested
    iteration_cap_hits: int


def peel(
    replica_flat: np.ndarray, replica_offsets: np.ndarray, last_slots: np.ndarray, n_slots: int, i_max: int = 50
) -> PeelOutcome:
    """Stream slots ``0 .. n_slots-1`` through the receiver.

    Packet ``p``'s replica slots are ``replica_flat[replica_offsets[p] :
    replica_offsets[p+1]]``, strictly ascending, and ``p`` resolves at the
    end of slot ``t`` only while ``t <= last_slots[p]``. Each slot's peel is
    a sequence of ascending scans; ``i_max`` caps the scans per slot, and a
    cascade the cap cuts off resumes at the next slot, counting one cap hit.
    The loop's buffers are numpy arrays, so tracemalloc sees them.
    """
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    flat, offsets, last = (np.ascontiguousarray(a, np.int64) for a in (replica_flat, replica_offsets, last_slots))
    _check(flat, offsets, last)
    n = len(last)
    # per-slot buffers end at the last replica slot streamed: no later one is touched
    size = max(0, min(n_slots, int(flat.max(initial=-1)) + 1))
    count, xor, queue = np.zeros(size, np.int64), np.zeros(size, np.int64), np.empty(size, np.int64)
    decode, order, clean = np.full(n, -1, np.int64), np.empty(n, np.int64), np.zeros(n, bool)
    cap_hits = _kernel.craloha_peel(flat, offsets, last, n, n_slots, i_max, size, count, xor, queue, decode, order, clean)
    return PeelOutcome(decode, order[: np.count_nonzero(decode >= 0)], clean, cap_hits)


def _check(flat, offsets, last) -> None:
    """Raise ValueError naming the first packet whose row the loop would
    misread. A repeated slot would cancel itself in the slot's XOR."""
    n = len(offsets) - 1
    if n < 0 or offsets[0] != 0 or offsets[-1] != len(flat):
        p = 0 if n < 1 or offsets[0] != 0 else n - 1
        raise ValueError(f"packet {p}: replica_offsets must run from 0 to len(replica_flat) = {len(flat)}")
    if len(bad := np.flatnonzero(offsets[1:] <= offsets[:-1])):
        raise ValueError(f"packet {bad[0]} has no replica slots")
    step = flat[1:] <= flat[:-1]
    step[offsets[1:-1] - 1] = False  # across a row boundary
    if len(bad := np.flatnonzero(step)):
        j = bad[0]
        p = np.searchsorted(offsets, j, side="right") - 1
        raise ValueError(f"packet {p} has replica slots not strictly ascending: {flat[j + 1]} after {flat[j]}")
    first = flat[offsets[:-1]]
    if len(bad := np.flatnonzero(first < 0)):
        raise ValueError(f"packet {bad[0]} has negative replica slot {first[bad[0]]}")
    if len(last) != n:
        raise ValueError(f"last_slots has {len(last)} entries for {n} packets")
    if len(bad := np.flatnonzero(last < first)):
        p = bad[0]
        raise ValueError(f"packet {p} has last slot {last[p]} before its first replica slot {first[p]}")
