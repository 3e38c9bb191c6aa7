"""Machine-readable export of experiment results (CSV).

Every experiment result exposes ``rows()``; ``repro figures --export``
writes them out so downstream users can plot the figures with their
tool of choice instead of scraping the text renderings.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Iterable, Sequence, Union

PathLike = Union[str, pathlib.Path]


def export_rows_csv(
    path: PathLike,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> pathlib.Path:
    """Write a headers+rows table as CSV; returns the path written."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            if len(row) != len(headers):
                raise ValueError(
                    f"row width {len(row)} != header width {len(headers)}"
                )
            writer.writerow([str(cell) for cell in row])
    return target
