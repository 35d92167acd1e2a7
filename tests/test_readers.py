"""The serve stack's file readers under corrupt input.

Four readers take files another process wrote: :func:`load_checkpoint`
(with its ``.prev`` fallback), :class:`JsonlFeed`, :class:`TelemetryTail`
and the supervisor's :func:`read_json`.  Each promises one named failure,
or none at all, whatever bytes it finds:

* ``load_checkpoint`` returns a validated payload or raises
  :class:`CheckpointCorruptError` (and falls back to an intact ``.prev``);
* ``JsonlFeed`` yields ticks or raises :class:`FeedError` naming
  ``path:line``, and under ``on_error="skip"`` only skips;
* ``TelemetryTail.poll`` and ``read_json`` never raise.

Regression tests pin the inputs that escaped as bare ``UnicodeDecodeError``
or ``OverflowError`` (or were accepted, for ``{"demand": true}``); a
hypothesis test then feeds each reader truncations, single-byte flips and
oversized numeric literals of a valid file.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import build
from repro.serve import (
    CheckpointCorruptError,
    ControllerSession,
    JsonlFeed,
    TelemetryTail,
    TelemetryWriter,
    load_checkpoint,
    previous_checkpoint_path,
    save_checkpoint,
)
from repro.serve.feed import FeedError, write_jsonl_trace
from repro.serve.supervisor import read_json, write_json_atomic

HUGE_INTEGER = b"1" + b"0" * 400  # parses as an int, overflows float()


def _flip(data: bytes, index: int, value: int) -> bytes:
    return data[:index] + bytes([value]) + data[index + 1 :]


def _checkpoints(path):
    """A primary checkpoint with an intact, older ``.prev`` beside it."""
    instance = build("diurnal-cpu-gpu", T=8)
    session = ControllerSession("B", instance.server_types)
    payloads = []
    for t in range(instance.T):
        session.observe(float(instance.demand[t]))
        if t in (3, 7):
            payloads.append(session.checkpoint())
            save_checkpoint(path, payloads[-1])
    return payloads


def _telemetry(path):
    writer = TelemetryWriter(path)
    instance = build("diurnal-cpu-gpu", T=4)
    session = ControllerSession("A", instance.server_types)
    for t in range(instance.T):
        writer.write(session.observe(float(instance.demand[t])).as_row(), tenant="a")
    writer.close()


def _heartbeat(path):
    write_json_atomic(
        path,
        {"schema": 1, "worker": 0, "incarnation": 1, "round": 12, "pid": 4242,
         "time": 1760000000.25, "ticks": {"t0": 12, "t1": 11}},
    )


# --------------------------------------------------------------------------- #
# Regressions: one undecodable byte, one oversized literal, one boolean
# --------------------------------------------------------------------------- #


class TestReaderRegressions:
    def test_undecodable_checkpoint_falls_back_to_prev(self, tmp_path):
        path = tmp_path / "t.ckpt.json"
        older, _ = _checkpoints(path)
        path.write_bytes(_flip(path.read_bytes(), 10, 0xFF))
        assert load_checkpoint(path) == json.loads(json.dumps(older))
        with pytest.raises(CheckpointCorruptError, match="not valid JSON"):
            load_checkpoint(path, fallback=False)

    @pytest.mark.parametrize(
        "line",
        [b'{"demand": 2.\xff}', HUGE_INTEGER, b'{"demand": true}'],
        ids=["undecodable", "beyond-float-range", "boolean"],
    )
    def test_jsonl_bad_line_is_a_feed_error_or_skipped(self, tmp_path, line):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"1.5\n" + line + b"\n2.5\n")
        with pytest.raises(FeedError, match=r"trace\.jsonl:2"):
            list(JsonlFeed(path).ticks())
        feed = JsonlFeed(path, on_error="skip")
        assert [tick.demand for tick in feed.ticks()] == [1.5, 2.5]
        assert feed.skipped == 1

    def test_telemetry_tail_counts_undecodable_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"t": 0, "schema": 1}\n{"t": \xff1, "schema": 1}\n')
        tail = TelemetryTail(path)
        assert [row["t"] for row in tail.poll()] == [0]
        assert tail.bad_lines == 1
        assert tail.offset == path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"t": 2, "schema": 1}\n')
        assert [row["t"] for row in tail.poll()] == [2]

    def test_read_json_returns_default_on_undecodable_bytes(self, tmp_path):
        path = tmp_path / "heartbeat.json"
        _heartbeat(path)
        path.write_bytes(_flip(path.read_bytes(), 3, 0xFF))
        assert read_json(path, default="absent") == "absent"

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", '"done"', "3", "null"])
    def test_read_json_reads_a_non_object_as_absent(self, tmp_path, text):
        # the fabric's readers call .get on control, heartbeat and result
        # files: valid JSON that is not an object must read as absent
        path = tmp_path / "result.json"
        path.write_text(text)
        assert read_json(path, default="absent") == "absent"


# --------------------------------------------------------------------------- #
# Fuzz: truncations, single-byte flips and oversized literals of valid files
# --------------------------------------------------------------------------- #

NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
OVERSIZED = [HUGE_INTEGER, b"1" + b"0" * 5000, b"1e400", b"-1e400", b"9" * 40]


@st.composite
def corruptions(draw, data: bytes) -> bytes:
    """A truncation, a single-byte flip or an oversized literal of ``data``."""
    kind = draw(st.sampled_from(["truncate", "flip", "oversize"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "flip":
        index = draw(st.integers(0, len(data) - 1))
        return _flip(data, index, draw(st.integers(0, 255)))
    numbers = list(NUMBER.finditer(data))
    match = numbers[draw(st.integers(0, len(numbers) - 1))]
    return data[: match.start()] + draw(st.sampled_from(OVERSIZED)) + data[match.end() :]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Valid files of each kind, and a temporary directory to corrupt copies in."""
    root = tmp_path_factory.mktemp("readers")
    ckpt = root / "valid.ckpt.json"
    _checkpoints(ckpt)
    trace = root / "valid-trace.jsonl"
    write_jsonl_trace(trace, np.linspace(0.5, 6.0, 6), checksum=True)
    telemetry = root / "valid-telemetry.jsonl"
    _telemetry(telemetry)
    heartbeat = root / "valid-heartbeat.json"
    _heartbeat(heartbeat)
    return {
        "dir": root,
        "checkpoint": ckpt.read_bytes(),
        "prev": previous_checkpoint_path(ckpt).read_bytes(),
        "trace": trace.read_bytes(),
        "telemetry": telemetry.read_bytes(),
        "heartbeat": heartbeat.read_bytes(),
    }


FUZZ = settings(max_examples=200, deadline=None)


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_loads_or_raises_corrupt(valid_files, data):
    path = valid_files["dir"] / "fuzz.ckpt.json"
    previous_checkpoint_path(path).write_bytes(valid_files["prev"])
    path.write_bytes(data.draw(corruptions(valid_files["checkpoint"])))
    try:
        payload = load_checkpoint(path, fallback=False)
    except CheckpointCorruptError:
        payload = None
    assert payload is None or isinstance(payload, dict)
    # an intact .prev always rescues a corrupt primary
    expected = payload if payload is not None else json.loads(valid_files["prev"])
    assert load_checkpoint(path) == expected


@FUZZ
@given(data=st.data())
def test_fuzzed_jsonl_yields_ticks_or_raises_feed_error(valid_files, data):
    path = valid_files["dir"] / "fuzz-trace.jsonl"
    path.write_bytes(data.draw(corruptions(valid_files["trace"])))
    try:
        list(JsonlFeed(path).ticks())
    except FeedError:
        pass
    feed = JsonlFeed(path, on_error="skip")
    demands = [tick.demand for tick in feed.ticks()]
    assert all(np.isfinite(d) and d >= 0 for d in demands)
    assert len(demands) + feed.skipped <= len(path.read_bytes().splitlines())


@FUZZ
@given(data=st.data())
def test_fuzzed_telemetry_and_heartbeat_never_raise(valid_files, data):
    path = valid_files["dir"] / "fuzz-telemetry.jsonl"
    path.write_bytes(data.draw(corruptions(valid_files["telemetry"])))
    tail = TelemetryTail(path)
    rows = tail.poll()
    assert all(isinstance(row, dict) for row in rows)
    with open(path, "ab") as handle:
        handle.write(b'{"t": 99, "schema": 1}\n')
    tail.poll()
    assert tail.offset == path.stat().st_size

    beat = valid_files["dir"] / "fuzz-heartbeat.json"
    beat.write_bytes(data.draw(corruptions(valid_files["heartbeat"])))
    payload = read_json(beat, default=None)
    assert payload is None or isinstance(payload, dict)
