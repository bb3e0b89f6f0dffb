"""Expected answers, by plain arithmetic on the generated rule tables.

Nothing here calls the program. For an edited query whose own fact is the
only one selected, the toy model's context distribution is the query rule's
table blended toward the asserted new object,

    ctx(t) = (1 - beta) * q(t) + beta * [t == new],

the prior is the table of the rule the fact's object-free prompt matches,
and contrast-full decoding picks the token with the largest

    adjusted(t) = ln ctx(t) - alpha * ln prior(t),

ties going to the lexicographically smaller token (the oracle refuses a
near tie rather than lean on that rule). Only a handful of token
classes differ (old, new, junk, the shared top-n token, and the residual
tokens, which all score alike), so each is scored once and the largest wins.
An unrelated query selects nothing, and its answer is the bare argmax of
its rule's table. The toy specs carry no continuations, so an answer is its
first token.
"""

from __future__ import annotations

import math

import gen

RESIDUAL = "*"


def _shares(table: dict, vocab_size: int) -> dict[str, float]:
    """Probability of each listed role, plus ``"*"`` for one unlisted token."""
    listed = {t: p for t, p in table.items() if t != RESIDUAL}
    shares = dict(listed)
    if table.get(RESIDUAL, 0.0) > 0:
        shares[RESIDUAL] = table[RESIDUAL] / (vocab_size - len(listed))
    return shares


def contrast_winner(query_table: dict, prompt_table: dict, *, beta: float, alpha: float,
                    vocab_size: int) -> str:
    """Winning role ("new", "old", "junk", ...) of the contrastive first token."""
    ctx = {t: (1.0 - beta) * p for t, p in _shares(query_table, vocab_size).items()}
    ctx["new"] = ctx.get("new", 0.0) + beta
    prior = _shares(prompt_table, vocab_size)
    if set(ctx) != set(prior):
        raise ValueError("query and prompt tables must list the same roles")
    scores = {t: math.log(ctx[t]) - alpha * math.log(prior[t]) for t in ctx if ctx[t] > 0}
    ranked = sorted(scores.values(), reverse=True)
    if len(ranked) > 1 and ranked[0] - ranked[1] < 1e-9:
        raise ValueError("near tie between two roles; the oracle would be unreliable")
    winner = max(scores, key=scores.get)
    if winner == RESIDUAL:
        raise ValueError("an unlisted token wins; the tables are badly chosen")
    return winner


def bare_winner(table: dict, vocab_size: int) -> str:
    """Role of the bare model's argmax token for a rule table."""
    shares = _shares(table, vocab_size)
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    if ranked[0][0] == RESIDUAL or (len(ranked) > 1 and ranked[0][1] == ranked[1][1]):
        raise ValueError("bare argmax is not a unique listed token")
    return ranked[0][0]


def tables_for(world: gen.World, kind: str, channel: str) -> tuple[dict, dict]:
    """(query table, fact prompt table) for one case kind and query channel."""
    tables = gen.FULL_TABLES if world.style == "full" else gen.TOPN_TABLES
    if kind == "fragile":
        query = tables["fragile_query"] if channel == "gen" else tables["fragile_prompt"]
        return query, tables["fragile_prompt"]
    return tables[kind], tables[kind]


def _token(role: str, names: dict[str, str]) -> str:
    return names.get(role, gen.SHARED_TOKEN)


def edited_answer(world: gen.World, case: gen.Case, channel: str) -> str:
    """Expected answer to a case's rel or gen query once its edit is stored."""
    query, prompt = tables_for(world, case.kind, channel)
    role = contrast_winner(query, prompt, beta=world.spec["beta"], alpha=gen.ALPHA,
                           vocab_size=world.vocab_size)
    return _token(role, gen.tokens_of(case.index))


def unrelated_answer(world: gen.World, landmark_name: str) -> str:
    """Expected bare answer to the locality query about one landmark."""
    tables = gen.FULL_TABLES if world.style == "full" else gen.TOPN_TABLES
    role = bare_winner(tables["landmark"], world.vocab_size)
    j = int(landmark_name[len("Landmark"):])
    return _token(role, gen.landmark_tokens(j))

