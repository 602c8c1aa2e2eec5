"""``table`` as a stream: csv and json records are written block by block, as computed.

The CLI's table writers take the blocks of ``dims._iter_blocks``, which
looks ``_block`` up in ``dims`` for every (m, n), and ``iter_table`` builds
its records from the rows of those blocks, so wrapping ``_block`` there
counts or alters each block on its way to the writer or the caller.
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

from conftest import ROW_COLUMNS, frozen_record_cells, record_json_dict, row_of
from selbergdim import cli, dims
from selbergdim.dims import iter_table, table

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def computed(monkeypatch):
    """The (m, n, r) of every record computed, in order, while the test runs.

    A zipped block's records are all computed when ``_block`` builds its
    columns; any other block's rows are computed one at a time, as each is
    asked for.
    """
    calls = []
    block = dims._block

    def counting(m, n, rs, *args):
        built = block(m, n, rs, *args)
        if type(built) is tuple:
            calls.extend((m, n, r) for r in rs)
            return built

        def rows():
            for row in built:
                calls.append(row[:3])
                yield row

        return rows()

    monkeypatch.setattr(dims, "_block", counting)
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
    # Every block of ARGV is zipped, of 3 records at n = 2 and 4 at n = 3,
    # and is computed all at once: the count of records computed after each.
    BLOCKS_DONE = [3, 7, 10, 14, 17, 21, 24, 28]

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            # The header before any record, then each block in one write,
            # right after it is computed and before the next one is begun.
            ("csv", [0, *BLOCKS_DONE]),
            # Each block with its separators, then the closing bracket.
            ("json", [*BLOCKS_DONE, 28]),
            # The pretty table needs every width first: each of its 29 lines
            # is written after the last record is computed.
            ("pretty", [28] * 29),
        ],
    )
    def test_records_written_as_computed(self, monkeypatch, computed, fmt, expected):
        sink = _Sink(computed)
        monkeypatch.setattr(sys, "stdout", sink)
        assert cli.main([*self.ARGV, "--format", fmt]) == 0
        assert len(computed) == 28
        assert sink.computed_at == expected
        sizes = [b - a for a, b in zip([0, *self.BLOCKS_DONE], self.BLOCKS_DONE)]
        if fmt == "csv":
            # The header, then each block's records, and no other, in one write.
            assert [part.count("\n") for part in sink.parts] == [1, *sizes]
        elif fmt == "json":
            # Each block's items in one write, then the closing bracket.
            assert [part.count('"m": ') for part in sink.parts] == [*sizes, 0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_block_of_single_queries_is_written_row_by_row(self, monkeypatch, computed, fmt):
        # only-n gives blocks of one r, built as single queries: 8 of one record.
        sink = _Sink(computed)
        monkeypatch.setattr(sys, "stdout", sink)
        assert cli.main([*self.ARGV, "--r-policy", "only-n", "--format", fmt]) == 0
        assert len(computed) == 8
        assert sink.computed_at == ([*range(9)] if fmt == "csv" else [*range(1, 9), 8])

    def test_iter_table_is_lazy_and_validates_eagerly(self, computed):
        records = iter_table((1, 4), (2, 3))
        assert computed == []
        first = next(records)
        # The first block, (1, 2) over r = 0..2, is zipped: computed whole.
        assert computed == [(1, 2, 0), (1, 2, 1), (1, 2, 2)]
        assert first.query == dims.DimQuery(1, 2, 0)
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
        block = dims._block
        k_reduction, routes_agree = ROW_COLUMNS.index("K_reduction"), cli._AGREE

        def off_at_3_2_1(m, n, rs, *args):
            # The (3, 2) block becomes rows, as a block that fails its verdict
            # is; every other block stays zipped. The bent row is made here,
            # after the block is built, so its chain goes on from true rows.
            built = block(m, n, rs, *args)
            if (m, n) != (3, 2):
                return built
            rows = [list(row) for row in dims._rows(built)]
            rows[1][k_reduction] += 1
            rows[1][routes_agree] = False
            return map(tuple, rows)

        monkeypatch.setattr(dims, "_block", off_at_3_2_1)
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
        # One block of two rows, built as single queries.
        assert cli._write_json([[row_of(rec)] * 2], buf.write) is False
        assert buf.getvalue() == json.dumps([record_json_dict(rec)] * 2, indent=2) + "\n"

    def test_empty_stream_is_an_empty_list(self):
        buf = io.StringIO()
        assert cli._write_json([], buf.write) is True
        assert buf.getvalue() == json.dumps([], indent=2) + "\n"


def frozen_pretty_table(rows) -> str:
    # The pretty table as it was written from a list of every row, kept as an
    # oracle: each column padded to its widest cell, two spaces apart.
    lines = [list(cli.CSV_COLUMNS)] + [frozen_record_cells(row) for row in rows]
    widths = [max(len(line[col]) for line in lines) for col in range(len(cli.CSV_COLUMNS))]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip() + "\n"
        for line in lines
    )


def test_pretty_writer_is_the_frozen_table():
    # m 1..12, n 1..15 has negative I values, and empty I_hyp cells at n = 1.
    rows = list(dims._iter_rows((1, 12), (1, 15)))
    cells = [frozen_record_cells(row) for row in rows]
    i_sum, i_hyp = (cli.CSV_COLUMNS.index(c) for c in ("I_sum", "I_hyp"))
    assert any(c[i_sum].startswith("-") for c in cells) and any(c[i_hyp] == "" for c in cells)
    buf = io.StringIO()
    assert cli._write_pretty(dims._iter_blocks((1, 12), (1, 15)), buf.write) is False
    assert buf.getvalue() == frozen_pretty_table(rows)


# Every block of m <= 40 and 1 <= n <= 40 over r = 0..n, and the deep block (400, 400).
_WRITER_BLOCKS = [(m, n) for m in range(1, 41) for n in range(1, 41)] + [(400, 400)]


def frozen_table(fmt: str, rows) -> str:
    """The table of ``rows`` as it was written one row at a time, kept as an oracle."""
    if fmt == "csv":
        lines = [cli.CSV_COLUMNS] + [frozen_record_cells(row) for row in rows]
        return "".join(cli._csv_row(line) + "\n" for line in lines)
    if fmt == "json":
        records = [dims.DimensionRecord(dims.DimQuery(*row[:3]), *row[3:]) for row in rows]
        return json.dumps([record_json_dict(rec) for rec in records], indent=2) + "\n"
    return frozen_pretty_table(rows)


@pytest.mark.parametrize("fmt", ["csv", "json", "pretty"])
def test_each_writer_writes_every_block_as_its_rows(fmt):
    # A zipped block is written from its columns, any other block row by row;
    # either way its table is that of its rows.
    zipped = 0
    for m, n in _WRITER_BLOCKS:
        block = dims._block(m, n, range(n + 1))
        zipped += type(block) is tuple
        rows = list(dims._block_rows(m, n, range(n + 1)))
        buf = io.StringIO()
        agree = cli._TABLE_WRITERS[fmt]([block], buf.write)
        assert agree is all(row[cli._AGREE] for row in rows), (m, n)
        assert buf.getvalue() == frozen_table(fmt, rows), (m, n)
    # Every block but the pole block (2, 1) is zipped.
    assert zipped == len(_WRITER_BLOCKS) - 1


def _traced_peak(m_hi: int, n_range: str = "2..3") -> int:
    """Peak traced bytes of one csv table over m 1..m_hi and n_range, written to the null device."""
    tracemalloc.start()
    try:
        argv = ["table", "--m-range", f"1..{m_hi}", "--n-range", n_range, "--out", os.devnull]
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_csv_peak_memory_does_not_grow_with_records():
    _traced_peak(5)  # first-call allocations are not per record
    small, large = _traced_peak(30), _traced_peak(300)  # 210 and 2,100 records
    assert large < 1.5 * small, (small, large)


def test_a_table_of_two_m_values_carries_no_rows():
    # No block reads a chain that m 1..2 leaves, so none is kept: the peak of
    # 399 values of n is that of the last alone. Kept chains, two K rows and
    # the D levels for each n and parity, would take some 18 times as much.
    _traced_peak(2, "400..400")
    one, every = _traced_peak(2, "400..400"), _traced_peak(2, "2..400")
    assert every < 1.5 * one, (one, every)


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
