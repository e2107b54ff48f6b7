"""The one format of every table the package writes or reads: UTF-8, a
header row, tab-separated fields, LF line ends (LF, CRLF or CR read), and no
tab, CR or LF in a field.  The model container keeps its own layout.
"""

from __future__ import annotations

from itertools import repeat

from .errors import FormatError

# Text read from a file per chunk, in characters.
_CHUNK_BYTES = 1 << 14


def _line_bound(path):
    """One more than the number of LF, CR and CRLF line ends in a file."""
    bound = 1
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            bound += (block.count(b"\n") + block.count(b"\r")
                      - block.count(b"\r\n"))
    return bound


def _not_utf8(path):
    """The FormatError at the line of a file's first byte that is not UTF-8,
    where LF, CR and CRLF each end a line as in text reading."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return FormatError(path, lineno, "not UTF-8 text")


def _tsv_chunks(path, columns, header_required):
    """Yield (linenos, fields) for the data rows of a TSV file, about
    `_CHUNK_BYTES` of text at a time: fields[k][r] is column k of the row
    on line linenos[r].

    Lines end at LF after universal-newline decoding, so CRLF and a lone CR
    end a line too.  Blank lines are skipped; lines starting with '#' are
    comments only above the header row (or the first data row when the
    header is left out), so a field may start with '#'.  A header row
    matching `columns` (case-insensitive, outer whitespace of each field
    and name ignored) is consumed when present; when `header_required` it
    must be the first non-comment line, and a file without one is reported
    at the line after its last.  A row with the wrong number of fields
    raises FormatError once the rows above it have been yielded, so the
    first bad row of the file is the one reported.
    """
    n_cols = len(columns)
    canonical = tuple(c.strip().lower() for c in columns)
    missing = "missing header row (expected %s)" % "<TAB>".join(columns)
    preamble, lineno, rest = True, 0, ""
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            try:
                text = fh.read(_CHUNK_BYTES)
            except UnicodeDecodeError:
                raise _not_utf8(path) from None
            lines = (rest + text).split("\n")
            rest = lines.pop() if text else ""  # a line not ended yet
            first, lineno = lineno + 1, lineno + len(lines)
            start = 0
            while preamble and start < len(lines):
                line = lines[start]
                if not line.strip() or line.startswith("#"):
                    start += 1
                    continue
                preamble = False
                if tuple(f.strip().lower() for f in line.split("\t")) == canonical:
                    start += 1
                elif header_required:
                    raise FormatError(path, first + start, missing)
            if preamble and header_required and not text:
                # no header; the line after the last, which may be unended
                raise FormatError(path, lineno + bool(lines[-1]), missing)
            rows, linenos = lines[start:], range(first + start, lineno + 1)
            if not all(map(str.strip, rows)):
                kept = [k for k, line in enumerate(rows) if line.strip()]
                rows, linenos = [rows[k] for k in kept], [linenos[k] for k in kept]
            tabs = list(map(str.count, rows, repeat("\t")))
            if tabs.count(n_cols - 1) < len(tabs):
                k = next(k for k, n in enumerate(tabs) if n != n_cols - 1)
                if k:
                    yield linenos[:k], _columns(rows[:k], n_cols)
                raise FormatError(path, linenos[k], f"expected {n_cols} "
                                  f"tab-separated columns, got {tabs[k] + 1}")
            if rows:
                yield linenos, _columns(rows, n_cols)
            if not text:
                return


def _columns(rows, n_cols):
    """The fields of tab-separated rows of `n_cols` fields, column by column."""
    fields = "\t".join(rows).split("\t")
    return [fields[k::n_cols] for k in range(n_cols)]


def _unwritable(text):
    """True when `text` holds a tab, CR or LF, which no TSV field can carry."""
    return "\t" in text or "\r" in text or "\n" in text


def tsv_text(columns, rows):
    """A table's text: the header row `columns`, then `rows` of string
    fields, each line ended by LF.  Raises ValueError naming the first row
    that is not one field per column, each free of tab, CR and LF."""
    rows = list(rows)
    lines = ["\t".join(columns), *map("\t".join, rows)]
    text = "\n".join(lines) + "\n"
    # a bad row shows in the counts over the whole text; only then are the
    # rows looked at one by one
    if (text.count("\t") != len(lines) * (len(columns) - 1)
            or text.count("\n") != len(lines) or "\r" in text):
        for r, fields in enumerate([columns, *rows]):
            fields = tuple(fields)
            if len(fields) != len(columns) or _unwritable("".join(fields)):
                where = f"row {r}" if r else "header row"
                raise ValueError(f"{where} {fields!r} is not {len(columns)} "
                                 "fields free of tab, CR and LF")
    return text


def write_tsv(path, columns, rows):
    """Write the table of :func:`tsv_text` to `path`; a row it refuses
    raises ValueError before the file is opened."""
    text = tsv_text(columns, rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
