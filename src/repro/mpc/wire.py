"""The worker-agent wire protocol shared by the process and remote backends:
length-prefixed frames (a truncated frame, closed socket or oversized
header is a :class:`ProtocolError`, never a hang), task payloads with
closures shipped by value, and point matrices referenced by content
fingerprint."""

from __future__ import annotations

import hashlib
import importlib
import io
import marshal
import pickle
import socket
import struct
import sys
import threading
import types
from typing import Optional, Tuple

import numpy as np

#: sanity cap on a single frame (a corrupted length header must not
#: allocate gigabytes before failing)
MAX_FRAME_BYTES = 1 << 31

_HEADER = struct.Struct("!Q")


class ProtocolError(Exception):
    """A frame could not be read or written whole: truncated stream,
    closed connection, or an implausible length header."""


# -- framing ------------------------------------------------------------------


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    buf = bytearray()
    while len(buf) < nbytes:
        piece = sock.recv(min(1 << 16, nbytes - len(buf)))
        if not piece:
            raise ProtocolError(
                f"connection closed mid-frame ({len(buf)}/{nbytes} bytes)"
            )
        buf += piece
    return bytes(buf)


def send_frame(sock: socket.socket, blob: bytes) -> None:
    """Write one length-prefixed frame."""
    sock.sendall(_HEADER.pack(len(blob)) + blob)


def recv_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame whole (or raise
    :class:`ProtocolError`); ``socket.timeout`` propagates so callers
    can implement leases."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return _recv_exact(sock, length)


def send_msg(sock: socket.socket, payload: dict) -> None:
    send_frame(sock, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def recv_msg(sock: socket.socket) -> dict:
    blob = recv_frame(sock)
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"expected a dict frame, got {type(payload).__name__}")
    return payload


# -- task shipping ------------------------------------------------------------
#
# map_machines tasks are closures over numpy arrays and module-level
# helpers — exactly what stdlib pickle refuses.  The pair of pickler
# subclasses below ships such functions *by value*: the marshalled code
# object, defaults, closure-cell contents, and the referenced globals
# (modules go by name, module-level functions by reference).  The point
# matrix additionally travels as a persistent id so a chunk payload
# never embeds the dataset — the worker resolves the fingerprint from
# its cache and answers ``need_dataset`` on a miss.  Locks and
# thread-locals travel as fresh ones: they guard driver-side state, and
# the worker gets its own copy of that state (as a forked child would).

#: lock types shipped as a fresh, unlocked lock of the same kind
_FRESH_LOCKS = {type(threading.Lock()): threading.Lock,
                type(threading.RLock()): threading.RLock}


class _DatasetMiss(Exception):
    def __init__(self, fingerprint: str) -> None:
        super().__init__(f"dataset {fingerprint} not cached on this worker")
        self.fingerprint = fingerprint


class _EmptyCell:
    """Sentinel for an unassigned closure cell."""


_EMPTY_CELL = _EmptyCell()


def _code_names(code: types.CodeType) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def _shipped_by_value(fn: types.FunctionType) -> bool:
    """True when ``fn`` cannot be pickled by reference (lambdas,
    nested functions, anything not importable under its qualname)."""
    if fn.__name__ == "<lambda>" or "<locals>" in fn.__qualname__:
        return True
    module = sys.modules.get(fn.__module__)
    if module is None:
        return True
    target = module
    for part in fn.__qualname__.split("."):
        target = getattr(target, part, None)
        if target is None:
            return True
    return target is not fn


def _rebuild_function(code_bytes, name, defaults, kwdefaults, cells, glb, module):
    import builtins

    code = marshal.loads(code_bytes)
    namespace = dict(glb)
    namespace.setdefault("__builtins__", builtins)
    namespace.setdefault("__name__", module)
    closure = tuple(
        types.CellType() if isinstance(v, _EmptyCell) else types.CellType(v)
        for v in cells
    )
    fn = types.FunctionType(code, namespace, name, defaults, closure)
    fn.__kwdefaults__ = kwdefaults
    return fn


def _reduce_function(fn: types.FunctionType):
    cells = []
    for cell in fn.__closure__ or ():
        try:
            cells.append(cell.cell_contents)
        except ValueError:  # pragma: no cover - unassigned cell
            cells.append(_EMPTY_CELL)
    glb = {
        name: fn.__globals__[name]
        for name in sorted(_code_names(fn.__code__))
        if name in fn.__globals__ and fn.__globals__[name] is not fn
    }
    return (
        _rebuild_function,
        (
            marshal.dumps(fn.__code__),
            fn.__name__,
            fn.__defaults__,
            fn.__kwdefaults__,
            tuple(cells),
            glb,
            fn.__module__,
        ),
    )


class _TaskPickler(pickle.Pickler):
    def __init__(self, buf, dataset: Optional[Tuple[str, np.ndarray]] = None) -> None:
        super().__init__(buf, protocol=pickle.HIGHEST_PROTOCOL)
        self._dataset = dataset

    def persistent_id(self, obj):
        if self._dataset is not None and obj is self._dataset[1]:
            return ("repro-dataset", self._dataset[0])
        return None

    def reducer_override(self, obj):
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        if isinstance(obj, types.FunctionType) and _shipped_by_value(obj):
            return _reduce_function(obj)
        if type(obj) in _FRESH_LOCKS:
            return (_FRESH_LOCKS[type(obj)], ())
        if isinstance(obj, threading.local):
            return (type(obj), ())
        return NotImplemented


class _TaskUnpickler(pickle.Unpickler):
    def __init__(self, buf, datasets: dict) -> None:
        super().__init__(buf)
        self._datasets = datasets

    def persistent_load(self, pid):
        kind, fingerprint = pid
        if kind != "repro-dataset":  # pragma: no cover - protocol guard
            raise ProtocolError(f"unknown persistent id {pid!r}")
        try:
            return self._datasets[fingerprint]
        except KeyError:
            raise _DatasetMiss(fingerprint) from None


def dumps_task(payload, dataset: Optional[Tuple[str, np.ndarray]] = None) -> bytes:
    """Pickle a task payload, shipping closures by value and the point
    matrix (when given) as a fingerprint reference."""
    buf = io.BytesIO()
    _TaskPickler(buf, dataset=dataset).dump(payload)
    return buf.getvalue()


def loads_task(blob: bytes, datasets: dict):
    """Inverse of :func:`dumps_task`; raises :class:`_DatasetMiss` when a
    referenced fingerprint is not in ``datasets``."""
    return _TaskUnpickler(io.BytesIO(blob), datasets).load()


def _unwrap(metric):
    """Walk oracle wrappers (``.inner``) down to the base metric."""
    seen = set()
    while metric is not None and id(metric) not in seen:
        seen.add(id(metric))
        yield metric
        metric = getattr(metric, "inner", None)


def find_points_array(metric) -> Optional[np.ndarray]:
    """The metric's raw coordinate matrix, if it has one."""
    for layer in _unwrap(metric):
        data = getattr(getattr(layer, "points", None), "_data", None)
        if isinstance(data, np.ndarray):
            return data
    return None


def dataset_fingerprint(array: np.ndarray) -> str:
    """Content fingerprint of a point matrix (shape + dtype + bytes)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((array.shape, str(array.dtype))).encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()
