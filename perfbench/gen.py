"""Seeded input generator for the benchmark workloads.

Everything here is plain data: toy model specs, case records and fact
payloads in the formats the program reads from disk. Nothing is imported
from ``factpatch``, so the oracle (``oracle.py``) that reads the same rule
tables stays independent of the program it checks.

Two table styles:

    full   the lifelong-editing world of the paper: every rule spreads a
           residual ``"*"`` mass over the whole vocabulary, so each
           distribution has one entry per vocabulary token (about three
           tokens per case). Case kinds easy / aligned / fragile.
    top-n  each rule lists only a few answers, the way a completion
           endpoint reports its top-N tokens. Case kinds easy / aligned.

A case's subject is ``Entity<5 digits>``; an unrelated subject is
``Landmark<5 digits>``. Fixed-width names keep one subject from being a
substring of another, which the toy model's rule matching relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BETA = 0.4
ALPHA = 0.2
K = 5

MOTTO_REL = "What motto is associated with {s}"
EMBLEM_REL = "What emblem stands for {s}"
LOC_QUERY = "What height is recorded for {s}?"

# Rule tables by role. "old" / "new" / "junk" / "alt" / "alt2" stand for a
# case's own tokens; "*" is residual mass spread over unlisted vocabulary.
FULL_TABLES = {
    "easy": {"old": 0.9, "new": 0.05, "*": 0.05},
    "aligned": {"new": 0.9, "old": 0.05, "*": 0.05},
    "fragile_query": {"old": 0.55, "junk": 0.25, "new": 0.05, "*": 0.15},
    "fragile_prompt": {"old": 0.9, "new": 0.05, "junk": 0.005, "*": 0.045},
    "landmark": {"alt": 0.96, "*": 0.04},
}
TOPN_TABLES = {
    "easy": {"old": 0.85, "new": 0.1, "unknown": 0.05},
    "aligned": {"new": 0.85, "old": 0.1, "unknown": 0.05},
    "landmark": {"alt": 0.8, "alt2": 0.15, "unknown": 0.05},
}
SHARED_TOKEN = "Unknown"
FULL_MIX = (("easy", 0.5), ("aligned", 0.3), ("fragile", 0.2))
TOPN_MIX = (("easy", 0.6), ("aligned", 0.4))


def subject(i: int) -> str:
    return f"Entity{i:05d}"


def landmark(j: int) -> str:
    return f"Landmark{j:05d}"


def tokens_of(i: int) -> dict[str, str]:
    return {"old": f"Old{i:05d}", "new": f"New{i:05d}", "junk": f"Junk{i:05d}"}


def landmark_tokens(j: int) -> dict[str, str]:
    return {"alt": f"Alt{j:05d}", "alt2": f"Second{j:05d}", "unknown": SHARED_TOKEN}


def queries_for(kind: str, subj: str) -> dict[str, str]:
    """The rewrite (rel) and paraphrase (gen) queries of one case."""
    if kind == "aligned":
        return {
            "rel": f"What emblem stands for {subj}?",
            "gen": f"Tell me the emblem tied to {subj}.",
        }
    gen = (
        f"How is {subj} described by historians?"
        if kind == "fragile"
        else f"Tell me the motto tied to {subj}."
    )
    return {"rel": f"What motto is associated with {subj}?", "gen": gen}


def _rule(subj: str, keywords: list[str], table: dict, names: dict[str, str]) -> dict:
    answers = {(t if t == "*" else names.get(t, SHARED_TOKEN)): p for t, p in table.items()}
    return {"subject": subj.lower(), "keywords": keywords, "answers": answers}


@dataclass
class Case:
    """One generated edit with its probe queries and table kind."""

    index: int
    kind: str
    subject: str
    relation: str
    old_object: str
    new_object: str
    rel_query: str
    gen_query: str
    loc_subject: str
    loc_query: str

    def payload(self) -> dict:
        """The edit as the program's memory and HTTP API take it."""
        return {
            "subject": self.subject,
            "relation": self.relation,
            "new_object": self.new_object,
            "old_object": self.old_object,
        }

    def fact_record(self, seq: int) -> dict:
        """The edit as a stored line of a memory file, worded the way the
        program words an edit that gives no surface text of its own."""
        surface = f"{self.relation.replace('{s}', self.subject)} {self.new_object}"
        return {"fact_id": f"pre{seq:06d}", "seq": seq, **self.payload(), "surface_text": surface}

    def case_record(self, loc_expected: str) -> dict:
        """The canonical case-file record of this edit."""
        return {
            "case_id": f"c{self.index:05d}-{self.kind}",
            **self.payload(),
            "surface_text": None,
            "rel_queries": [{"query": self.rel_query, "expected": self.new_object}],
            "gen_queries": [{"query": self.gen_query, "expected": self.new_object}],
            "loc_queries": [{"query": self.loc_query, "expected": loc_expected}],
        }


@dataclass
class World:
    """A toy model spec plus the cases and unrelated subjects it knows."""

    style: str
    spec: dict
    cases: list[Case]
    landmarks: list[str]

    @property
    def vocab_size(self) -> int:
        return len(self.spec["vocabulary"])


def _kinds(n: int, mix, rng: random.Random) -> list[str]:
    kinds: list[str] = []
    for kind, share in mix:
        kinds += [kind] * round(n * share)
    kinds = (kinds + [mix[0][0]] * n)[:n]
    rng.shuffle(kinds)
    return kinds


def build_world(n_cases: int, seed: int, *, style: str = "full",
                n_landmarks: int | None = None) -> World:
    """Cases ``0..n_cases-1`` with one rule each (two for fragile), plus
    landmark rules for unrelated queries. Full-style worlds give every case
    its own landmark; top-n worlds take ``n_landmarks`` of them."""
    rng = random.Random(seed)
    mix = FULL_MIX if style == "full" else TOPN_MIX
    tables = FULL_TABLES if style == "full" else TOPN_TABLES
    kinds = _kinds(n_cases, mix, rng)
    n_landmarks = n_cases if n_landmarks is None else n_landmarks
    rules: list[dict] = []
    vocabulary: list[str] = [] if style == "full" else [SHARED_TOKEN]
    cases: list[Case] = []
    for i, kind in enumerate(kinds):
        subj = subject(i)
        names = tokens_of(i)
        vocabulary += [names["old"], names["new"]]
        if kind == "fragile":
            vocabulary.append(names["junk"])
            rules.append(_rule(subj, ["described"], tables["fragile_query"], names))
            rules.append(_rule(subj, ["motto"], tables["fragile_prompt"], names))
        else:
            keyword = "emblem" if kind == "aligned" else "motto"
            rules.append(_rule(subj, [keyword], tables[kind], names))
        loc = landmark(i if style == "full" else rng.randrange(n_landmarks))
        q = queries_for(kind, subj)
        cases.append(Case(
            index=i, kind=kind, subject=subj,
            relation=EMBLEM_REL if kind == "aligned" else MOTTO_REL,
            old_object=names["old"], new_object=names["new"],
            rel_query=q["rel"], gen_query=q["gen"],
            loc_subject=loc, loc_query=LOC_QUERY.format(s=loc),
        ))
    landmarks = [landmark(j) for j in range(n_landmarks)]
    for j, name in enumerate(landmarks):
        names = landmark_tokens(j)
        vocabulary.append(names["alt"])
        if style == "topn":
            vocabulary.append(names["alt2"])
        rules.append(_rule(name, ["height"], tables["landmark"], names))
    spec = {"beta": BETA, "vocabulary": vocabulary, "rules": rules, "continuations": {}}
    return World(style=style, spec=spec, cases=cases, landmarks=landmarks)
