"""Workload definitions: a fixed universe of rounds per workload, and the
seeded order that makes one run's inputs.

A workload's universe is a list of rounds. Every round of a workload has the
same shape (the same request kinds on models of the same sizes), so a run's
request mix does not depend on how many rounds fit in its time: a faster
program completes more rounds of the same mix, never a different mix. The
universe is finite because every reference output in `bench/data` was
recorded at the commit that defined the benchmark.

Every run sends the rounds in universe order from the first. The run seed
chooses the order of units inside a round and the order of requests inside
a unit; the statistics and targets depend on the unit alone. So runs with
different seeds measure the same work, and their spread is timing noise,
not the luck of which inputs were drawn. Units are shuffled, not sent in
size order, because the host's speed drifts over seconds: requests of like
cost that ran back to back would share one drift, and a kind's median
would rest on a few seconds of the run.

Nothing here imports `umvue` at module level: model files are built by
`materialize` through the module object the caller imported, so set-up can
re-import the library and time it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Why each workload exists, next to its definition (also copied into
# BENCHMARK.json).
WHY = {
    "elim-1p": "CLI analyze/verify/estimate on lehmann-trunc(k) and binomial(n) up to N=65: "
               "complete full-rank one-parameter families, cost is Fraction Gauss-Jordan",
    "random-session": "C02-style random models, N 2-30: fixed per-call overhead dominates, so "
                      "per-model set-up added to win on large models must not lose here",
}

KINDS = ("analyze", "verify", "estimate", "build", "session")

# Rounds a run completes at the commit that defined the benchmark. The tail
# percentile of each request kind is fixed from the kind's count in this
# many rounds (see run.tail_level), not from the count a run reaches, so a
# faster program that completes more rounds reports the same percentile.
MIN_ROUNDS = {"elim-1p": 2, "random-session": 13}

# --- universes -------------------------------------------------------------

# elim-1p: per family and round, three mid sizes that get analyze, verify
# and estimate; for lehmann-trunc one top size that is only analyzed
# (lehmann-trunc(63) has N = 65); and three small sizes that carry the
# sessions and the write path. Binomial sizes sit lower because its
# coefficients make each size about 1.6 times dearer. Round 1 is round 0
# with every size plus one, so sizes grow from round to round. No command
# may read the same model twice in a process, so the universe holds these
# two rounds, and a program fast enough to finish both before --seconds ends
# the run early.
ELIM_SIZES = {
    "lehmann-trunc": {"small": (6, 8, 10), "mid": (24, 26, 28), "top": (62,)},
    "binomial": {"small": (6, 8, 10), "mid": (20, 22, 24), "top": ()},
}
# A kind's median rests on the requests of like cost around it, and cost
# grows steeply with N. So every small and mid size is sent once per
# parameter name below, as a copy of the model with its parameter renamed:
# many requests of like cost, and still no two requests of one command read
# the same model.
# Each small copy is built into a product, and the copies under the first
# ELIM_SLICED names are then sliced. A slice costs several products: with
# as many slices as products the build median would fall in the gap between
# the two, with 2 slices to 5 products it falls among the products and the
# tail among the slices.
ELIM_NAMES = ("theta", "lam", "mu", "nu", "psi")
ELIM_SLICED = 2
ELIM_ROUNDS = 2
ELIM_INDEX = 3  # _one_shot index: random statistics (always UMVUEs here), span targets

# random-session: 15 slots per round with N = 2, 4, ..., 30; degree cycles
# 1..6 and the parameter count alternates so that both vary across N.
SESSION_SLOTS = tuple(
    (2 + 2 * i, 1 + i % 6, 1 + (i + i // 6) % 2) for i in range(15)
)
SESSION_ROUNDS = 96

# the C02 recipe: 12 random and 8 block-constant statistics per session
SESSION_RANDOM_STATS = 12
SESSION_BLOCK_STATS = 8

BERNOULLI_PARAM = "phi"  # the factor elim-1p and random-session build with


def universe(workload: str) -> list[list[dict]]:
    """Unit recipes, round by round. Deterministic; takes no seed."""
    if workload == "elim-1p":
        return [
            [{"id": f"{family}-{size + r}" + ("" if name == ELIM_NAMES[0] else f"-{name}"),
              "family": family, "size": size + r, "role": role}
             | {"name": name} | ({"slice": i < ELIM_SLICED} if role == "small" else {})
             for family, roles in ELIM_SIZES.items()
             for role, sizes in roles.items() for size in sizes
             for i, name in enumerate(ELIM_NAMES[:1] if role == "top" else ELIM_NAMES)]
            for r in range(ELIM_ROUNDS)
        ]
    if workload == "random-session":
        return [
            [{"id": f"r{r}s{j}", "random": [500000 + 64 * r + j, n, degree, params]}
             for j, (n, degree, params) in enumerate(SESSION_SLOTS)]
            for r in range(SESSION_ROUNDS)
        ]
    raise KeyError(workload)


# --- requests --------------------------------------------------------------

@dataclass
class Request:
    id: str
    kind: str
    model: str                      # model key, for size descriptors
    argv: list[str] | None = None   # CLI request
    output: Path | None = None      # file a build request writes
    session: tuple | None = None    # (model path, statistics, targets)


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 5))


def _random_values(rng: random.Random, n: int) -> list[Fraction]:
    return [_fraction(rng) for _ in range(n)]


def _block_values(rng: random.Random, blocks: list[list[int]]) -> list[Fraction]:
    values = [Fraction(0)] * sum(len(b) for b in blocks)
    for block in blocks:
        c = _fraction(rng)
        for k in block:
            values[k] = c
    return values


def _stat_arg(values: list[Fraction]) -> str:
    return ",".join(str(v) for v in values)


class _Targets:
    """Target polynomials of the four kinds a session asks about."""

    def __init__(self, umvue, model, meta: dict):
        self.umvue = umvue
        self.model = model
        self.meta = meta

    def span(self, rng: random.Random):
        """A combination of up to three UMVUE functionals: has a UMVUE."""
        zero = self.umvue.Polynomial.zero()
        blocks = self.meta["partition"]
        out = zero
        for j in sorted(rng.sample(range(len(blocks)), min(3, len(blocks)))):
            pi = sum((self.model.pmf[k] for k in blocks[j]), zero)
            out = out + pi * Fraction(rng.randint(1, 9), rng.randint(1, 9))
        return out

    def no_umvue(self, rng: random.Random):
        """A single cell outside the functionals' span, if the model has one."""
        k = self.meta["no_umvue_cell"]
        return self.span(rng) if k is None else self.model.pmf[k]

    def beyond(self, rng: random.Random):
        """A power above every cell's degree: not estimable."""
        name = self.model.parameters[0]
        degree = max(p.degree() for p in self.model.pmf)
        return self.umvue.Polynomial.variable(name) ** (degree + 1)

    def session(self, rng: random.Random) -> list:
        return [self.span(rng), self.span(rng), self.no_umvue(rng), self.beyond(rng)]


def _session_inputs(umvue, model, meta: dict, rng: random.Random, path: Path) -> tuple:
    stats = [umvue.Statistic(tuple(_random_values(rng, model.n)))
             for _ in range(SESSION_RANDOM_STATS)]
    stats += [umvue.Statistic(tuple(_block_values(rng, meta["partition"])))
              for _ in range(SESSION_BLOCK_STATS)]
    return (path, stats, _Targets(umvue, model, meta).session(rng))


def _write(umvue, model, path: Path) -> Path:
    path.write_text(umvue.model_to_json(model), encoding="utf-8")
    return path


def _cli(rid: str, kind: str, model: str, *argv, output: Path | None = None) -> Request:
    return Request(rid, kind, model, argv=[str(a) for a in argv], output=output)


def _bernoulli(umvue):
    return umvue.rename_parameters(umvue.corpus_model("bernoulli"), {"theta": BERNOULLI_PARAM})


def unit_models(umvue, workload: str, recipe: dict) -> dict:
    """The models a unit's requests read, by model key."""
    uid = recipe["id"]
    if workload == "elim-1p":
        key = "k" if recipe["family"] == "lehmann-trunc" else "n"
        model = umvue.corpus_model(recipe["family"], {key: recipe["size"]})
        if recipe["name"] != model.parameters[0]:
            model = umvue.rename_parameters(model, {model.parameters[0]: recipe["name"]})
        return {uid: model}
    if workload == "random-session":
        return {uid: umvue.random_model(*recipe["random"])}
    raise KeyError(workload)


def _slot(uid: str) -> int:
    """Round plus slot number of a `r<round>s<slot>` unit id."""
    r, _, s = uid[1:].partition("s")
    return int(r) + int(s)


def _one_shot(umvue, key: str, path: Path, model, meta: dict, rng: random.Random,
              index: int) -> list[Request]:
    """analyze, verify and estimate on one model.

    The verify statistic is block-constant for even `index` and random for
    odd; the target kind cycles through span, no-UMVUE and not estimable.
    """
    if index % 2 == 0:
        stat = _block_values(rng, meta["partition"])
    else:
        stat = _random_values(rng, model.n)
    targets = _Targets(umvue, model, meta)
    target = (targets.span, targets.no_umvue, targets.beyond)[index % 3](rng)
    return [
        _cli(f"{key}/analyze", "analyze", key, "analyze", path, "--json"),
        _cli(f"{key}/verify", "verify", key, "verify", path, f"--statistic={_stat_arg(stat)}"),
        _cli(f"{key}/estimate", "estimate", key, "estimate", path,
             f"--target={umvue.format_poly(target)}"),
    ]


def materialize(umvue, workload: str, recipe: dict, meta: dict, directory: Path,
                seed: int) -> list[Request]:
    """Write a unit's input files and return its requests, in execution order.

    `meta` maps model keys to what was recorded about each model (partition,
    a cell without UMVUE, size descriptors).
    """
    uid = recipe["id"]
    rng = random.Random(f"{workload}/{uid}")  # inputs depend on the unit only
    pick = random.Random(f"{workload}/{uid}/{seed}")  # the run seed's order
    directory.mkdir(parents=True, exist_ok=True)
    models = unit_models(umvue, workload, recipe)

    if workload == "elim-1p":
        model, m = models[uid], meta[uid]
        path = _write(umvue, model, directory / f"{uid}.json")
        if recipe["role"] == "top":
            return [_cli(f"{uid}/analyze", "analyze", uid, "analyze", path, "--json")]
        if recipe["role"] == "mid":
            body = _one_shot(umvue, uid, path, model, m, rng, ELIM_INDEX)
            pick.shuffle(body)
            return body
        # small: the write path and a session
        bern = _write(umvue, _bernoulli(umvue), directory / f"{uid}-bernoulli.json")
        prod, sliced = directory / f"{uid}-x.json", directory / f"{uid}-xs.json"
        body = [_cli(f"{uid}/product", "build", uid, "product", path, bern, "-o", prod,
                     output=prod)]
        if recipe["slice"]:
            body.append(_cli(f"{uid}/slice", "build", uid, "slice", prod, "--bind",
                             f"{BERNOULLI_PARAM}=1/3", "-o", sliced, output=sliced))
        body.append(Request(f"{uid}/session", "session", uid,
                            session=_session_inputs(umvue, model, m, rng, path)))
        return body

    if workload == "random-session":
        model, m = models[uid], meta[uid]
        path = _write(umvue, model, directory / f"{uid}.json")
        body = _one_shot(umvue, uid, path, model, m, rng, _slot(uid))
        body.append(Request(f"{uid}/session", "session", uid,
                            session=_session_inputs(umvue, model, m, rng, path)))
        if len(model.parameters) == 1:
            bern = _write(umvue, _bernoulli(umvue), directory / f"{uid}-bernoulli.json")
            out = directory / f"{uid}-x.json"
            body.append(_cli(f"{uid}/product", "build", uid, "product", path, bern, "-o", out,
                             output=out))
        else:
            out = directory / f"{uid}-s.json"
            body.append(_cli(f"{uid}/slice", "build", uid, "slice", path, "--bind", "eta=1/2",
                             "-o", out, output=out))
        pick.shuffle(body)
        return body

    raise KeyError(workload)


def unit_order(workload: str, seed: int, round_index: int, recipes: list[dict]) -> list[dict]:
    """Units of one round in the order a run sends them."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    out = list(recipes)
    rng.shuffle(out)
    return out
