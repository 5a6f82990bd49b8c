"""Shared trajectory-record IO: race-free sequence allocation and the
one load/validate/migrate path.

``npb bench``, ``npb loadgen``, and ``npb chaos`` all append
schema-versioned JSON records to a trajectory directory as
``<PREFIX>_<seq>.json``.  The original scan-then-write allocation
(list the directory, take highest+1, ``open(path, "w")``) races when
two runs append concurrently: both see the same highest sequence and
the slower writer silently overwrites the faster one's record.

:func:`reserve_record_path` closes the race with ``O_CREAT | O_EXCL``:
creating the file *is* the allocation, the kernel arbitrates ties, and
the loser retries at the next sequence number.  The record body is then
written to a temp file and :func:`os.replace` d onto the reserved name,
so readers never observe a half-written record either.

:func:`load_record` is the read side for every record family (BENCH,
LOADGEN, CHAOS, TRACE): the file must be a JSON object of the expected
``kind`` whose ``schema_version`` is an int no newer than the reader;
older versions go through the family's in-memory ``migrate``, and a
family without one reads its own version only.
"""

from __future__ import annotations

import json
import os
import re
import threading

#: Zero-padding width of the sequence number in record file names.
SEQUENCE_WIDTH = 4


def sequence_pattern(prefix: str) -> re.Pattern:
    """Compiled ``^<PREFIX>_(\\d{4})\\.json$`` matcher for ``prefix``."""
    return re.compile(
        rf"^{re.escape(prefix)}_(\d{{{SEQUENCE_WIDTH}}})\.json$"
    )


def _highest(directory: str, prefix: str) -> tuple[int, str | None]:
    """``(sequence, file name)`` of the highest ``<prefix>_<seq>.json``
    in ``directory``; ``(0, None)`` when there is none."""
    pattern = sequence_pattern(prefix)
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    matches = ((pattern.match(name), name) for name in names)
    return max(
        ((int(match.group(1)), name) for match, name in matches if match),
        default=(0, None),
    )


def next_sequence(directory: str, prefix: str) -> int:
    """1 + the highest ``<prefix>_<seq>.json`` already in ``directory``."""
    return _highest(directory, prefix)[0] + 1


def latest_record_path(directory: str, prefix: str) -> str | None:
    """Path of the highest-sequence ``<prefix>_<seq>.json``, if any."""
    name = _highest(directory, prefix)[1]
    return None if name is None else os.path.join(directory, name)


def reserve_record_path(
    directory: str, prefix: str, max_attempts: int = 10000
) -> tuple[int, str]:
    """Atomically claim the next free sequence: ``(sequence, path)``.

    The returned path exists (as an empty file) the moment this returns,
    so no concurrent writer -- thread or process -- can claim the same
    sequence number.  On ``FileExistsError`` (someone else won the race
    for that number) the scan-and-create is simply retried.
    """
    for _ in range(max_attempts):
        sequence = next_sequence(directory, prefix)
        path = os.path.join(
            directory, f"{prefix}_{sequence:0{SEQUENCE_WIDTH}d}.json"
        )
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue  # lost the race; rescan and try the next number
        os.close(fd)
        return sequence, path
    raise RuntimeError(
        f"could not reserve a {prefix}_<seq>.json slot in {directory!r} "
        f"after {max_attempts} attempts"
    )


def write_json_record(record: dict, path: str) -> str:
    """Write ``record`` to ``path`` atomically (tmp + rename)."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def append_record(record: dict, directory: str, prefix: str) -> str:
    """Append ``record`` to the trajectory under the next free sequence.

    Stamps the allocated ``sequence`` into the record before writing.
    """
    sequence, path = reserve_record_path(directory, prefix)
    return write_json_record(dict(record, sequence=sequence), path)


def load_record(
    path: str, kind: str, max_version: int, tool: str, migrate=None
) -> dict:
    """Load and sanity-check one trajectory record of ``kind``.

    Records from a *newer* schema than ``max_version`` are rejected
    (``tool`` names the command that refreshes them); older ones are
    upgraded in memory by ``migrate(record, version)`` -- never
    rewritten on disk -- or, when the family has no ``migrate``,
    rejected too.
    """
    with open(path) as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or record.get("kind") != kind:
        raise ValueError(f"{path}: not an {kind} file")
    version = record.get("schema_version")
    if not isinstance(version, int) or version > max_version or (
        migrate is None and version < max_version
    ):
        raise ValueError(
            f"{path}: schema_version {version!r} (this tool reads "
            f"{'<= ' if migrate else ''}{max_version}); refresh the record "
            f"with '{tool}'"
        )
    return record if migrate is None else migrate(record, version)
