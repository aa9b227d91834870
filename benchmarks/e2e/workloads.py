"""The five workloads: seeded, deterministic op lists over one LDBC snapshot.

Every input is drawn here from ``random.Random`` seeded with the workload
name and ``--seed`` over entity lists read from the store — never from
plans, timings or ``curate()`` output — so a change to the optimizer cannot
change what the benchmark sends.  Nothing in this module imports the
program: the untraced run needs only the prepared entity lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: one-line reasons, copied into ``BENCHMARK.json``.
WHY = {
    "point_lookup": (
        "256 one-subject lookups, all plan-cache hits: isolates the front door "
        "(socket, HTTP, admission, thread per query)"
    ),
    "distinct_q3": (
        "LDBC Q3 under 2048 distinct bindings, never a plan-cache hit: "
        "parse, translate and join ordering do the work"
    ),
    "join_heavy": (
        "one 3-join GROUP BY template in 16 cached texts with ten-row results: "
        "the executor does the work"
    ),
    "bulk_result": (
        "four cached 2000-row pages (0.55 MB JSON each): "
        "decode, serialization and chunked socket writes do the work"
    ),
    "read_write_mix": (
        "R R R W on one connection, each W replacing a 256-triple batch: "
        "delta folds, compaction and the write path"
    ),
}
NAMES = tuple(WHY)

#: ``cli serve``'s default plan cache (``--capacity``)
PLAN_CACHE_CAPACITY = 512
POINT_PERSONS = 256
Q3_BINDINGS = 2048
#: a fixed pool of Q3 bindings whose bodies the oracle knows (one-time cost,
#: 20 ms each); every seed opens its list with a sample of them, so the
#: first ``Q3_VERIFIED`` ops of a run are checked body for body.
Q3_POOL = 256
Q3_VERIFIED = 128
Q3_POOL_SEED = 20140331
#: a country holding this share of everything located somewhere is left out
#: of Q3's domain (see :func:`read_entities`).
GIANT_COUNTRY_SHARE = 0.1
JOIN_TEXTS = 16
BULK_PAGES = 4
BULK_ROWS = 2000

#: every fourth op of ``read_write_mix`` is a write.
WRITE_EVERY = 4
BATCH_TRIPLES = 256
#: live bench batches.  32 x 256 = 8192 triples (4 % of the medium base) is
#: the store's default compaction threshold, so the preload compacts once
#: and afterwards every 16th write does (each adds 256 and removes 256).
WINDOW = 32

BENCH_PREDICATE = "<http://bench/p>"
COUNT_QUERY = "SELECT (COUNT(?s) AS ?n) WHERE { ?s %s ?o }" % BENCH_PREDICATE

_POINT = "SELECT ?p ?o WHERE { <%s> ?p ?o }"
_Q3 = (
    "SELECT ?friend (COUNT(?postX) AS ?countX) WHERE { "
    "<%s> sn:knows ?f1 . ?f1 sn:knows ?friend . "
    "?postX sn:hasCreator ?friend . ?postX sn:isLocatedIn <%s> . "
    "?postY sn:hasCreator ?friend . ?postY sn:isLocatedIn <%s> . "
    "FILTER(?friend != <%s>) } "
    "GROUP BY ?friend ORDER BY DESC(?countX) ?friend LIMIT 20"
)
_JOIN = (
    "SELECT ?c (COUNT(?post) AS ?n) WHERE { "
    "?post sn:hasCreator ?c . ?post sn:creationDate ?d . ?post sn:hasTag ?tag . "
    "FILTER(?tag != <%s>) } GROUP BY ?c ORDER BY DESC(?n) ?c LIMIT 10"
)
_BULK = (
    "SELECT ?post ?c ?d WHERE { ?post sn:hasCreator ?c . ?post sn:creationDate ?d } "
    "LIMIT %d OFFSET %d"
)

Binding = Tuple[str, str, str]


@dataclass(frozen=True)
class Entities:
    """The sorted IRI lists bindings are drawn from, and the bulk row count."""

    persons: Sequence[str]
    countries: Sequence[str]
    tags: Sequence[str]
    bulk_rows: int


def read_entities(dataset) -> Entities:
    """Read the lists off an open :class:`repro.api.Dataset`.

    Q3's two countries come from the ordinary ones only.  At ``medium`` two
    of twenty countries hold 64 % of all located posts; a binding that
    names one of them is a class of its own (its ``postX`` x ``postY``
    product can add 25 MB to the server's peak memory in one request), and
    whether a seed's first few hundred bindings contain such a request
    decided ``peak_rss_mb``.  This is the paper's point about uniformly
    drawn parameters, so its remedy is applied: one class of bindings,
    chosen by a count over the data.
    """

    def rows(query: str) -> List[Tuple[str, ...]]:
        found = dataset.query(query, timeout=None).fetchall()
        return [tuple(str(term.value) for term in row.values()) for row in found]

    def column(query: str) -> Tuple[str, ...]:
        return tuple(sorted(row[0] for row in rows(query)))

    located = {
        country: int(count)
        for country, count in rows(
            "SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x sn:isLocatedIn ?c . ?c rdf:type sn:Country } "
            "GROUP BY ?c"
        )
    }
    countries = column("SELECT ?x WHERE { ?x rdf:type sn:Country }")
    limit = GIANT_COUNTRY_SHARE * sum(located.values())
    ordinary = tuple(country for country in countries if located.get(country, 0) < limit)
    bulk = rows(
        "SELECT (COUNT(?post) AS ?n) WHERE { ?post sn:hasCreator ?c . ?post sn:creationDate ?d }"
    )
    return Entities(
        persons=column("SELECT ?x WHERE { ?x rdf:type sn:Person }"),
        # a tiny dataset may leave fewer than the two Q3 needs
        countries=ordinary if len(ordinary) >= 2 else countries,
        tags=column("SELECT DISTINCT ?x WHERE { ?p sn:hasTag ?x }"),
        bulk_rows=int(bulk[0][0]),
    )


def _draw_q3(rng: random.Random, entities: Entities, count: int, taken: Dict[Binding, None]):
    """Add ``count`` uniformly drawn distinct bindings to ``taken`` (insertion-ordered)."""
    space = len(entities.persons) * len(entities.countries) * (len(entities.countries) - 1)
    target = min(len(taken) + count, space)
    while len(taken) < target:
        x, y = rng.sample(entities.countries, 2)
        taken[(rng.choice(entities.persons), x, y)] = None


def _q3_text(binding: Binding) -> str:
    person, x, y = binding
    return _Q3 % (person, x, y, person)


def _q3_pool(entities: Entities) -> List[Binding]:
    pool: Dict[Binding, None] = {}
    _draw_q3(random.Random(Q3_POOL_SEED), entities, Q3_POOL, pool)
    return list(pool)


def _bulk_offsets(entities: Entities) -> List[int]:
    """Offsets of the full pages (at least ``BULK_PAGES``, so tiny data gets short ones)."""
    return [page * BULK_ROWS for page in range(max(BULK_PAGES, entities.bulk_rows // BULK_ROWS))]


def oracle_texts(entities: Entities) -> List[str]:
    """Every text whose body the oracle computes once per snapshot.

    Whole populations where they are small (any seed's draw is covered),
    the fixed pool for Q3.
    """
    texts = [_POINT % person for person in entities.persons]
    texts += [_JOIN % tag for tag in entities.tags]
    texts += [_BULK % (BULK_ROWS, offset) for offset in _bulk_offsets(entities)]
    texts += [_q3_text(binding) for binding in _q3_pool(entities)]
    return texts


def _batch(number: int) -> str:
    return " ".join(
        "<http://bench/b%d/s%d> %s <http://bench/o%d> ." % (number, row, BENCH_PREDICATE, row)
        for row in range(BATCH_TRIPLES)
    )


def preload_update() -> str:
    """One request inserting the first ``WINDOW`` batches."""
    return "INSERT DATA { %s }" % " ".join(_batch(number) for number in range(WINDOW))


def write_update(number: int) -> str:
    """Write ``number``: insert a fresh batch, delete the oldest live one.

    One chained request, so every write costs the same (alternating
    INSERT and DELETE requests would make the write median sit between
    two modes) and the live size never moves.
    """
    return "INSERT DATA { %s } ; DELETE DATA { %s }" % (
        _batch(number + WINDOW),
        _batch(number),
    )


@dataclass(frozen=True)
class Op:
    text: str
    is_write: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    #: the query texts, cycled in order
    queries: Tuple[str, ...]
    #: 0 = read-only; N = every Nth op is a write
    write_every: int = 0

    def op(self, position: int) -> Op:
        """The op at ``position`` of the endless, deterministic op stream."""
        reads = position
        if self.write_every:
            cycle, slot = divmod(position, self.write_every)
            if slot == self.write_every - 1:
                return Op(write_update(cycle), is_write=True)
            reads = cycle * (self.write_every - 1) + slot
        return Op(self.queries[reads % len(self.queries)])

    def warm_queries(self) -> Tuple[str, ...]:
        """Every distinct text where the list fits the plan cache, else a few."""
        if len(self.queries) <= PLAN_CACHE_CAPACITY:
            return self.queries
        return self.queries[-16:]


def build(name: str, seed: int, entities: Entities) -> Workload:
    # read_write_mix draws point_lookup's stream: same seed, same texts, so
    # the two workloads differ only by the writes.
    stream = "point_lookup" if name == "read_write_mix" else name
    rng = random.Random("%s:%d" % (stream, seed))
    if stream == "point_lookup":
        persons = rng.sample(entities.persons, min(POINT_PERSONS, len(entities.persons)))
        write_every = WRITE_EVERY if name == "read_write_mix" else 0
        return Workload(name, tuple(_POINT % person for person in persons), write_every)
    if name == "distinct_q3":
        pool = _q3_pool(entities)
        bindings = dict.fromkeys(rng.sample(pool, min(Q3_VERIFIED, len(pool))))
        _draw_q3(rng, entities, Q3_BINDINGS - len(bindings), bindings)
        return Workload(name, tuple(_q3_text(binding) for binding in bindings))
    if name == "join_heavy":
        tags = rng.sample(entities.tags, min(JOIN_TEXTS, len(entities.tags)))
        return Workload(name, tuple(_JOIN % tag for tag in tags))
    if name == "bulk_result":
        offsets = rng.sample(_bulk_offsets(entities), BULK_PAGES)
        return Workload(name, tuple(_BULK % (BULK_ROWS, offset) for offset in offsets))
    raise KeyError("unknown workload %r (have %s)" % (name, ", ".join(NAMES)))
