"""Pseudo-English word generation: onset-nucleus-coda syllables assembled
from English-legal spelling clusters, rejection-sampled against an English
wordlist, the game vocabulary, and previously emitted words."""

from __future__ import annotations

from functools import cache

from .world import load_data

_MAX_RESAMPLES = 200


@cache
def load_english_words() -> frozenset[str]:
    text = load_data("english_words.txt")
    return frozenset(w.strip() for w in text.splitlines()
                     if w.strip() and not w.startswith("#"))


class PseudowordMaker:
    """Seeded generator that never repeats a word and never emits an English
    word or anything in `forbidden` (the live game vocabulary)."""

    def __init__(self, rng, forbidden=()):
        tables = load_data("phonotactics.json")
        self.onsets = tables["onsets"]
        self.nuclei = tables["nuclei"]
        self.codas = tables["codas"]
        self.rng = rng
        self.english = load_english_words()
        self.forbidden = set(forbidden)
        self.emitted: set[str] = set()

    def _pick(self, pool: list[str]) -> str:
        return pool[int(self.rng.integers(len(pool)))]

    def _syllable(self) -> str:
        return self._pick(self.onsets) + self._pick(self.nuclei) + self._pick(self.codas)

    def make(self) -> str:
        """One fresh 4-8 letter pseudo-word; length cap and syllable count
        are relaxed only if resampling is exhausted."""
        max_len = 8
        extra_syllables = 0
        while True:
            for _ in range(_MAX_RESAMPLES):
                count = 1 + int(self.rng.integers(2)) + extra_syllables
                word = "".join(self._syllable() for _ in range(count))
                if not 4 <= len(word) <= max_len:
                    continue
                if (word in self.english or word in self.forbidden
                        or word in self.emitted):
                    continue
                self.emitted.add(word)
                return word
            max_len += 2
            extra_syllables += 1
