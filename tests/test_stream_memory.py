"""Stream commands hold the state, not the stream.

Each command that reads --events parses and applies the file in one pass,
so its peak traced memory stays level as the stream grows on a fixed book
(the 50 accounts of ``streams.throughput_stream``).
"""

import tracemalloc

import pytest

import plfkit.analytics  # noqa: F401  imported before tracing, as each command imports what it runs
import plfkit.risk  # noqa: F401
from plfkit.cli import main
from plfkit.events import write_events
from streams import throughput_stream

SMALL = 1000


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    directory = tmp_path_factory.mktemp("throughput")
    paths = {}
    for n in (SMALL, 4 * SMALL):
        paths[n] = str(directory / f"{n}.jsonl")
        write_events(paths[n], throughput_stream(n))
    return paths


def traced_peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ["replay"],
    ["liquidable"],
    ["efficiency"],
    ["timeseries", "--stride", str(10 * SMALL)],  # two rows at either length
], ids=lambda argv: argv[0])
def test_peak_memory_does_not_grow_with_the_stream(streams, capsys, argv):
    small, large = (traced_peak(argv + ["--events", streams[n]]) for n in (SMALL, 4 * SMALL))
    capsys.readouterr()
    assert large <= 1.5 * small, f"peak {small} B at {SMALL} events, {large} B at {4 * SMALL}"
