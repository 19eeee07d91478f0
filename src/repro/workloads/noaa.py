"""The NOAA temperature-analysis use case (§6.3, Fig. 1).

The paper's script downloads yearly index files and compressed station
archives from NOAA's FTP server.  The network and the archive format are not
available offline, so this workload substitutes them with deterministic
synthetic equivalents that preserve the pipeline structure:

* ``index_lines(year)`` stands in for ``curl $base/$y`` — a directory listing
  whose lines contain station archive names (some ending in ``.gz``, some
  not, so the ``grep gz`` stage still filters),
* ``station_records(identifier)`` stands in for ``xargs curl | gunzip`` — the
  fixed-width daily records of one station for one year, where columns 88-92
  hold the air temperature (with occasional ``999`` sentinel values exactly
  like the real dataset).

The same functions back the ``fetch-station`` command registered in
:mod:`repro.commands`, so the full Fig. 1 pipeline runs hermetically.
"""

from __future__ import annotations

import random
from typing import Dict, List


#: Years covered by the use case (the paper uses 2015-2020).
YEARS = list(range(2015, 2021))

#: Stations per yearly index (the real dataset has thousands; the synthetic
#: default keeps correctness runs fast while remaining configurable).
DEFAULT_STATIONS_PER_YEAR = 24

#: Daily records per station-year.
RECORDS_PER_STATION = 365


def index_lines(year: int, stations: int = DEFAULT_STATIONS_PER_YEAR) -> List[str]:
    """A synthetic FTP directory listing for one year."""
    rng = random.Random(year)
    lines = []
    for station in range(stations):
        name = f"{710000 + station:06d}-{rng.randrange(99999):05d}-{year}"
        size = rng.randrange(2_000, 90_000)
        # Mimic an `ls -l`-style listing: several columns, file name in the
        # 9th whitespace-separated field (matching the `cut -d " " -f9` stage).
        lines.append(
            f"-rw-r--r--  1 ftp  ftp  {size:8d} Jan  1 00:00 {name}.gz"
        )
        if station % 11 == 0:
            lines.append(
                f"-rw-r--r--  1 ftp  ftp  {size:8d} Jan  1 00:00 {name}.txt"
            )
    return lines


def station_records(identifier: str, records: int = RECORDS_PER_STATION) -> List[str]:
    """Fixed-width records for one station archive.

    Column layout follows the slice used by Fig. 1: characters 88-92
    (1-based, inclusive) contain the temperature in tenths of a degree,
    occasionally the 999 sentinel for missing data.
    """
    rng = random.Random(hash(identifier) & 0xFFFFFFFF)
    lines = []
    for day in range(records):
        temperature = rng.randrange(0, 450)
        if rng.random() < 0.02:
            body = "0999"
        else:
            body = f"{temperature:04d}"
        prefix = f"{identifier:<60.60}day{day:04d}".ljust(87, "x")
        # Characters 88-91 hold the 4-character temperature field, 92 a flag.
        lines.append(prefix + body + "1" + "trailing-data")
    return lines


def yearly_dataset(
    years: List[int] = None, stations: int = DEFAULT_STATIONS_PER_YEAR
) -> Dict[str, List[str]]:
    """Materialize index files and station archives for the interpreter."""
    years = years or YEARS
    files: Dict[str, List[str]] = {}
    for year in years:
        listing = index_lines(year, stations)
        files[f"noaa/{year}.index"] = listing
        for line in listing:
            name = line.split()[-1]
            if not name.endswith(".gz"):
                continue
            archive = name[:-3]
            files[f"noaa/{year}/{archive}"] = station_records(f"{year}/{archive}")
    return files


def per_year_pipeline(year: int, stations: int = DEFAULT_STATIONS_PER_YEAR) -> str:
    """The body of Fig. 1's loop for a single year, on the synthetic data.

    ``curl``/``gunzip`` are replaced by ``fetch-station`` (annotated stateless)
    which expands an archive identifier into its records.
    """
    return (
        f"cat noaa/{year}.index | grep gz | tr -s ' ' | cut -d ' ' -f 9"
        f" | sed 's;^;{year}/;' | xargs -n 1 fetch-station"
        " | cut -c 88-92 | grep -iv 999 | sort -rn | head -n 1"
        f" | sed 's;^;Maximum temperature for {year} is: ;'"
    )


def full_script(years: List[int] = None) -> str:
    """The complete multi-year script (a sequence of per-year pipelines)."""
    years = years or YEARS
    return "\n".join(per_year_pipeline(year) for year in years)


def simulated_line_counts(years: List[int] = None, stations: int = 2000) -> Dict[str, int]:
    """Line counts approximating the real dataset's size (~82 GB over 5 years)."""
    years = years or YEARS
    counts: Dict[str, int] = {}
    for year in years:
        counts[f"noaa/{year}.index"] = stations
    return counts
