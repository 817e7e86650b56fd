"""Reading and writing workload files.

The on-disk format (shared by the CLI, the examples and any external
tooling) is one filter per line::

    # comments and blank lines are skipped
    oid <TAB> xpath
    xpath                # bare lines get oids q0, q1, …

Round-trips losslessly: ``load_workload(dump_workload(filters))`` gives
back equal filters.
"""

from __future__ import annotations

import io
from typing import IO, Iterable

from repro.errors import WorkloadError
from repro.xpath.ast import XPathFilter
from repro.xpath.parser import parse_xpath


def iter_workload_lines(lines: Iterable[str]) -> Iterable[tuple[str | None, str]]:
    """Yield (oid or None, xpath) pairs from raw lines."""
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" in line:
            oid, _, xpath = line.partition("\t")
            yield oid.strip(), xpath.strip()
        else:
            yield None, line


def load_workload(source: str | IO) -> list[XPathFilter]:
    """Parse a workload from a path, file object, or literal text.

    A string argument containing a newline or a tab is treated as the
    workload text itself; anything else as a file path.
    """
    if isinstance(source, str):
        if "\n" in source or "\t" in source:
            handle: IO = io.StringIO(source)
        else:
            handle = open(source, "r", encoding="utf-8")
    else:
        handle = source
    try:
        filters: list[XPathFilter] = []
        anonymous = 0
        for oid, xpath in iter_workload_lines(handle):
            if oid is None:
                oid = f"q{anonymous}"
                anonymous += 1
            filters.append(parse_xpath(xpath, oid))
    finally:
        if handle is not source and not isinstance(source, io.StringIO):
            handle.close()
    oids = [f.oid for f in filters]
    if len(set(oids)) != len(oids):
        duplicates = sorted({oid for oid in oids if oids.count(oid) > 1})
        raise WorkloadError(f"duplicate oids in workload file: {duplicates}")
    if not filters:
        raise WorkloadError("workload file contains no filters")
    return filters


def dump_workload(filters: Iterable[XPathFilter]) -> str:
    """Serialise filters to the line format (oid<TAB>source)."""
    lines = []
    for xpath_filter in filters:
        source = xpath_filter.source or str(xpath_filter.path)
        if "\t" in source or "\n" in source:
            raise WorkloadError(f"filter source not representable: {source!r}")
        lines.append(f"{xpath_filter.oid}\t{source}")
    return "\n".join(lines) + "\n"
