"""``table`` as a stream: csv and json records are written as they are computed.

The CLI's table writers take the rows of ``dims._iter_rows``, which looks
``_block_rows`` up in ``dims`` for every (m, n), and ``iter_table`` builds
its records from those rows, so wrapping ``_block_rows`` there counts or
alters each record on its way to the writer or the caller.
"""

import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import ROW_COLUMNS, record_json_dict, row_of
from selbergdim import cli, dims
from selbergdim.dims import iter_table, table

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def computed(monkeypatch):
    """The (m, n, r) of every record computed, in order, while the test runs."""
    calls = []
    block_rows = dims._block_rows

    def counting(m, n, rs, limit=0):
        for row in block_rows(m, n, rs, limit):
            calls.append(row[:3])
            yield row

    monkeypatch.setattr(dims, "_block_rows", counting)
    return calls


class _Sink:
    """A stdout stand-in that notes how many records were computed at each write."""

    def __init__(self, computed):
        self.computed = computed
        self.parts = []
        self.computed_at = []

    def write(self, text):
        self.parts.append(text)
        self.computed_at.append(len(self.computed))
        return len(text)

    def flush(self):
        pass


class TestStreaming:
    ARGV = ("table", "--m-range", "1..4", "--n-range", "2..3")  # 4 * (3 + 4) = 28 records

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            # The header before any record, then each record right after it is computed.
            ("csv", list(range(29))),
            # Each record with its separator, then the closing bracket.
            ("json", list(range(1, 29)) + [28]),
            # The pretty table needs every width first, so it is written once, at the end.
            ("pretty", [28]),
        ],
    )
    def test_records_written_as_computed(self, monkeypatch, computed, fmt, expected):
        sink = _Sink(computed)
        monkeypatch.setattr(sys, "stdout", sink)
        assert cli.main([*self.ARGV, "--format", fmt]) == 0
        assert len(computed) == 28
        assert sink.computed_at == expected

    def test_iter_table_is_lazy_and_validates_eagerly(self, computed):
        records = iter_table((1, 4), (2, 3))
        assert computed == []
        first = next(records)
        assert computed == [(1, 2, 0)] and first.query == dims.DimQuery(1, 2, 0)
        assert [first, *records] == table((1, 4), (2, 3))
        with pytest.raises(dims.DomainError, match="empty range"):
            iter_table((4, 1), (2, 3))
        with pytest.raises(dims.DomainError, match="unknown r policy"):
            iter_table((1, 4), (2, 3), "sometimes")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mid_grid_disagreement_writes_every_record_and_exits_2(
        self, monkeypatch, run_cli, tmp_path, fmt
    ):
        argv = ("table", "--m-range", "1..6", "--n-range", "2..3", "--format", fmt)
        code, clean, _ = run_cli(*argv)
        assert code == 0
        block_rows = dims._block_rows
        k_reduction, routes_agree = ROW_COLUMNS.index("K_reduction"), cli._AGREE

        def off_at_3_2_1(m, n, rs, limit=0):
            for row in block_rows(m, n, rs, limit):
                values = list(row)
                if row[:3] == (3, 2, 1):
                    values[k_reduction] += 1
                    values[routes_agree] = False
                yield tuple(values)

        monkeypatch.setattr(dims, "_block_rows", off_at_3_2_1)
        code, out, err = run_cli(*argv)
        assert (code, err) == (2, "")
        out_path = tmp_path / f"table.{fmt}"
        assert run_cli(*argv, "--out", str(out_path)) == (2, "", "")
        assert out_path.read_text(encoding="utf-8") == out

        # All 42 records are written; only record 15, (3, 2, 1), differs.
        if fmt == "csv":
            got, want = out.splitlines()[1:], clean.splitlines()[1:]
        else:
            got, want = json.loads(out), json.loads(clean)
        assert len(got) == len(want) == 42
        assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == [15]


@pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
@pytest.mark.parametrize(
    "argv,code",
    [
        # n = 1 holds the hyp_error records, so the routes disagree and the exit is 2.
        (("table", "--m-range", "1..6", "--n-range", "1..3"), 2),
        (("dims", "-m", "4", "-n", "5", "-r", "3"), 0),
        (("dims", "-m", "2", "-n", "1", "-r", "1"), 2),
    ],
    ids=["table", "dims 4 5 3", "dims 2 1 1"],
)
def test_table_builds_no_query_or_record(monkeypatch, run_cli, argv, code, fmt):
    # Nor does dims: it renders the one row of its block, with an int I_hyp.
    argv = (*argv, "--format", fmt)
    expected = run_cli(*argv)
    assert expected[0] == code

    def refuse(*args, **kwargs):
        raise AssertionError("the table or dims path built a query, a record or a Fraction")

    for module in (dims, cli):
        for name in ("DimQuery", "DimensionRecord", "Fraction"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run_cli(*argv) == expected


class TestJsonWriter:
    def test_matches_json_dumps_on_a_grid_with_hyp_errors(self, run_cli):
        records = table((1, 8), (1, 4))
        assert any(rec.hyp_error is not None for rec in records)
        argv = ("table", "--m-range", "1..8", "--n-range", "1..4", "--format", "json")
        code, out, _ = run_cli(*argv)
        assert code == 2
        assert out == json.dumps([record_json_dict(rec) for rec in records], indent=2) + "\n"

    def test_strings_escaped_as_json_dumps_escapes_them(self):
        rec = dataclasses.replace(
            dims.compute_record(dims.DimQuery(2, 1, 1)), hyp_error='pole "k=1"\\\n\té '
        )
        buf = io.StringIO()
        assert cli._write_json([row_of(rec)] * 2, buf.write) is False
        assert buf.getvalue() == json.dumps([record_json_dict(rec)] * 2, indent=2) + "\n"

    def test_empty_stream_is_an_empty_list(self):
        buf = io.StringIO()
        assert cli._write_json([], buf.write) is True
        assert buf.getvalue() == json.dumps([], indent=2) + "\n"


def _traced_peak(m_hi: int) -> int:
    """Peak traced bytes of one csv table over m 1..m_hi, n 2..3, written to the null device."""
    tracemalloc.start()
    try:
        argv = ["table", "--m-range", f"1..{m_hi}", "--n-range", "2..3", "--out", os.devnull]
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_csv_peak_memory_does_not_grow_with_records():
    _traced_peak(5)  # first-call allocations are not per record
    small, large = _traced_peak(30), _traced_peak(300)  # 210 and 2,100 records
    assert large < 1.5 * small, (small, large)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_pipe_ends_without_traceback(fmt):
    # Far more output than a pipe buffers, so the writer meets the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "selbergdim", "table", "--m-range", "1..2000",
         "--n-range", "2..3", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE
    assert err == b""
    assert head[0] == (b"m,n,r,D,K_recursion,K_reduction,K_closed,I_sum,I_hyp,I_subtract,"
                       b"routes_agree,in_validity_range\n" if fmt == "csv" else b"[\n")
