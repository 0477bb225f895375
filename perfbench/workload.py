"""Seeded inputs: the corpus, its base/delta split, queries and schedules.

The corpus of each workload is fixed: the generator's own default seed
at a fixed scale, so offline figures compare like with like from run to
run.  Queries and arrival times are pure functions of the workload seed,
so the same seed always gives the same requests.  The program under
test only ever sees the CSV files and the HTTP requests built from these.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass

from loadgen import Request, poisson_arrivals

DELTA_CERTIFICATES = 40
MISSPELL_SHARE = 0.4
YEAR_FILTER_SHARE = 0.3
PARISH_FILTER_SHARE = 0.2
CLICKS = 2  # pedigrees opened per browse session

# Corpus per workload: (generator name, scale), at the generator's default
# seed.  IOS at 0.1 is 1,867 records; KIL at 0.05 (2,007) is of similar
# size.  Both stay above the 1,000 records at which `repro resolve`
# switches to its parallel path.
CORPORA = {
    "ios": ("make_ios_dataset", 0.1),
    "kil": ("make_kil_dataset", 0.05),
}


def make_corpus(workload: str):
    from repro.data import synthetic

    maker, scale = CORPORA[workload]
    return getattr(synthetic, maker)(scale=scale)


def split_base_delta(dataset, n_delta: int = DELTA_CERTIFICATES):
    """(base, delta): the last ``n_delta`` certificates form the delta."""
    from repro.data.records import Dataset

    cert_ids = sorted(dataset.certificates)
    delta_ids = set(cert_ids[-n_delta:])

    def subset(name, keep):
        certs = [c for cid, c in dataset.certificates.items() if cid in keep]
        rids = {rid for c in certs for rid in c.member_record_ids()}
        return Dataset(name, [r for r in dataset if r.record_id in rids], certs)

    return subset("base", set(cert_ids) - delta_ids), subset("delta", delta_ids)


@dataclass(frozen=True)
class SearchSpec:
    """One name query plus the ground-truth person it was drawn from."""

    body: dict
    person_id: int

    def key(self) -> str:
        return json.dumps(self.body, sort_keys=True)

    def request(self, tag=None) -> Request:
        return Request(
            "search", "POST", "/v1/search", json.dumps(self.body).encode(), tag
        )


def misspell(rng: random.Random, word: str) -> str:
    """One seeded edit: substitute, delete or swap adjacent letters."""
    pos = rng.randrange(1, len(word) - 1)
    edit = rng.choice(("substitute", "delete", "swap"))
    if edit == "substitute":
        letter = rng.choice([c for c in string.ascii_lowercase if c != word[pos]])
        return word[:pos] + letter + word[pos + 1:]
    if edit == "delete":
        return word[:pos] + word[pos + 1:]
    return word[:pos - 1] + word[pos] + word[pos - 1] + word[pos + 1:]


def _searchable(dataset) -> list:
    return [
        r
        for r in sorted(dataset, key=lambda r: r.record_id)
        if r.get("first_name") and r.get("surname")
    ]


def draw_search(rng: random.Random, record) -> SearchSpec:
    surname = record.get("surname")
    if len(surname) >= 4 and rng.random() < MISSPELL_SHARE:
        surname = misspell(rng, surname)
    body: dict = {"first_name": record.get("first_name"), "surname": surname}
    year = record.get("event_year")
    if year and rng.random() < YEAR_FILTER_SHARE:
        year = int(year)
        body["year_from"] = year - rng.randint(5, 15)
        body["year_to"] = year + rng.randint(5, 15)
    if record.get("parish") and rng.random() < PARISH_FILTER_SHARE:
        body["parish"] = record.get("parish")
    return SearchSpec(body, record.person_id)


def distinct_searches(dataset, stream: str, count: int) -> list[SearchSpec]:
    """``count`` pairwise-distinct queries drawn from ground-truth records;
    ``stream`` names the seeded random stream (e.g. ``"search-miss:7"``)."""
    rng = random.Random(stream)
    records = _searchable(dataset)
    seen: set[str] = set()
    out: list[SearchSpec] = []
    while len(out) < count:
        spec = draw_search(rng, rng.choice(records))
        if spec.key() not in seen:
            seen.add(spec.key())
            out.append(spec)
    return out


def zipf_weights(n: int) -> list[float]:
    return [1.0 / rank for rank in range(1, n + 1)]


@dataclass(frozen=True)
class Session:
    """A genealogist's visit: one search, then pedigrees of top hits."""

    search: SearchSpec
    generations: tuple[int, ...]
    formats: tuple[str, ...]


def ladder_schedule(
    seed: int, rates: list[float], durations: list[float]
) -> list[list[float]]:
    """Poisson arrival offsets for every rung of the search-miss ladder."""
    rng = random.Random(f"ladder:{seed}")
    return [poisson_arrivals(rng, rate, d) for rate, d in zip(rates, durations)]


def browse_schedule(
    seed: int,
    working_set: list[SearchSpec],
    session_rate: float,
    arrivals: int,
    reload_every: int,
) -> list[tuple[float, object]]:
    """``arrivals`` Poisson arrivals of browse sessions at ``session_rate``,
    with a reload in place of every ``reload_every``-th one, so every run
    has the same number of reloads; items are ``Session`` or ``"reload"``."""
    rng = random.Random(f"browse-schedule:{seed}")
    weights = zipf_weights(len(working_set))
    offsets, t = [], 0.0
    for _ in range(arrivals):
        t += rng.expovariate(session_rate)
        offsets.append(t)
    out: list[tuple[float, object]] = []
    for index, offset in enumerate(offsets):
        if (index + 1) % reload_every == 0:
            out.append((offset, "reload"))
            continue
        spec = rng.choices(working_set, weights)[0]
        out.append(
            (
                offset,
                Session(
                    spec,
                    tuple(rng.choice((2, 3)) for _ in range(CLICKS)),
                    tuple(rng.choice(("json", "ascii")) for _ in range(CLICKS)),
                ),
            )
        )
    return out
