"""Shared helpers of the hostile-input batteries.

Decoders and guards must answer corrupt or non-finite input with a typed
error, and never hang.  :func:`outcomes` runs a battery's cases in order on
one daemon worker thread, each under its own wall-clock deadline, and fails
the test naming the first case that overruns; the stuck worker is a daemon
and does not keep the interpreter alive.  Starting one thread per case cost
more than the decodes themselves on the every-truncation batteries.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Callable, Iterable, Iterator

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.base import Compressor
from repro.errors import DecompressionError

#: Wall-clock seconds one case may take.
DEADLINE_S = 5.0


def outcomes(
    call: Callable, cases: Iterable[tuple[str, object]], seconds: float = DEADLINE_S
) -> Iterator[tuple[str, object, object]]:
    """Yield ``(label, case, outcome)`` for each ``(label, case)`` of ``cases``.

    ``outcome`` is ``call(case)``'s return value, or the exception it raised;
    floating-point warnings are silenced, as garbage input overflows.  The
    next case starts only after the caller has taken the previous outcome.
    """
    todo: queue.SimpleQueue = queue.SimpleQueue()
    done: queue.SimpleQueue = queue.SimpleQueue()

    def work():
        with np.errstate(all="ignore"):
            while (item := todo.get()) is not None:
                try:
                    done.put(call(item[0]))
                except BaseException as exc:  # noqa: BLE001 - handed to the test
                    done.put(exc)

    threading.Thread(target=work, daemon=True).start()
    try:
        for label, case in cases:
            todo.put((case,))
            try:
                got = done.get(timeout=seconds)
            except queue.Empty:
                pytest.fail(f"{label} did not return within {seconds} s")
            yield label, case, got
    finally:
        todo.put(None)


def outcome(fn: Callable[[], object], label: str = "call") -> object:
    """What ``fn()`` returned or raised, under the wall bound."""
    ((_, _, got),) = outcomes(lambda f: f(), [(label, fn)])
    return got


def decoded(codec: str, data: bytes) -> object:
    """What decoding ``data`` under ``codec`` returned or raised, under the
    wall bound."""
    return outcome(lambda: get_compressor(codec).decompress(data), f"{codec} decode")


def assert_decodes_typed(codec: str, streams: Iterable[tuple[str, bytes]]) -> None:
    """Each ``(label, stream)`` decodes under ``codec`` to the shape and dtype
    its header declares, or raises ``DecompressionError``."""
    decode = lambda data: get_compressor(codec).decompress(data)  # noqa: E731
    for label, data, got in outcomes(decode, streams):
        if isinstance(got, BaseException):
            assert isinstance(got, DecompressionError), f"{label}: {got!r}"
            continue
        _, shape, dtype, *_ = Compressor._unpack_header(data)
        assert got.shape == shape and got.dtype == dtype, label


def truncations(stream: bytes, name: str) -> Iterator[tuple[str, bytes]]:
    """Every proper prefix of ``stream``, labelled by its cut."""
    return ((f"{name}[:{cut}]", stream[:cut]) for cut in range(len(stream)))


def bit_flips(stream: bytes, name: str, n: int) -> Iterator[tuple[str, bytes]]:
    """``n`` copies of ``stream``, each with one seeded bit flipped."""
    rng = np.random.default_rng(20261017)
    for bit in rng.integers(0, 8 * len(stream), size=n):
        corrupt = bytearray(stream)
        corrupt[bit // 8] ^= 1 << (bit % 8)
        yield f"{name} flip {bit}", bytes(corrupt)


def walk(shape, seed):
    """A random walk along every axis: smooth enough to compress well."""
    field = np.random.default_rng(seed).standard_normal(shape)
    for axis in range(len(shape)):
        field = np.cumsum(field, axis=axis)
    return field
