"""Fixed integer-id vocabulary with a word table and role bookkeeping.

The toy decoder consumes sequences of token ids. The table distinguishes:
  * special tokens (BOS/EOS/yes/no, the question mark, the caption marker),
  * text object words (what questions and captions are made of),
  * patch tokens (one per object word; the embedding a grid cell uses when
    that object covers it), and
  * background texture tokens used by empty grid cells.

Patch tokens and text words are distinct ids on purpose: a patch carrying
"dog" must unembed to the text word "dog", not to itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FormatError, InvalidInput, InvalidSpec, require_int

BOS = "<bos>"
EOS = "<eos>"
YES = "yes"
NO = "no"
QMARK = "?"
CAPTION = "<cap>"

SPECIALS: tuple[str, ...] = (BOS, EOS, YES, NO, QMARK, CAPTION)

DEFAULT_OBJECT_WORDS: tuple[str, ...] = (
    "dog", "cat", "car", "tree", "bird", "fish", "horse",
    "boat", "bus", "lamp", "cup", "book", "kite", "drum",
)


@dataclass(frozen=True)
class Vocabulary:
    """Immutable word table: id -> word plus role index sets."""

    words: tuple[str, ...]
    object_words: tuple[str, ...]
    n_background: int
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)
    # each object word by its lower-case form, for matching question text
    lower_objects: dict[str, str] = field(init=False, repr=False, compare=False)
    _patch_ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.words)) != len(self.words):
            raise InvalidSpec("vocabulary contains duplicate words")
        object.__setattr__(self, "_ids", {w: i for i, w in enumerate(self.words)})
        object.__setattr__(self, "lower_objects", {w.lower(): w for w in self.object_words})
        object.__setattr__(self, "_patch_ids", dict(zip(self.object_words, self.patch_token_ids)))

    # -- sizes and role ranges ------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def n_objects(self) -> int:
        return len(self.object_words)

    @property
    def bos_id(self) -> int:
        return self._ids[BOS]

    @property
    def eos_id(self) -> int:
        return self._ids[EOS]

    @property
    def yes_id(self) -> int:
        return self._ids[YES]

    @property
    def no_id(self) -> int:
        return self._ids[NO]

    @property
    def qmark_id(self) -> int:
        return self._ids[QMARK]

    @property
    def caption_id(self) -> int:
        return self._ids[CAPTION]

    @property
    def object_ids(self) -> tuple[int, ...]:
        return tuple(self._ids[w] for w in self.object_words)

    @property
    def patch_token_ids(self) -> tuple[int, ...]:
        base = len(SPECIALS) + self.n_objects
        return tuple(range(base, base + self.n_objects))

    @property
    def background_ids(self) -> tuple[int, ...]:
        base = len(SPECIALS) + 2 * self.n_objects
        return tuple(range(base, base + self.n_background))

    # -- lookups --------------------------------------------------------------
    def id_of(self, word: str) -> int:
        try:
            return self._ids[word]
        except KeyError:
            raise InvalidInput(f"word not in vocabulary: {word!r}") from None

    def word_of(self, token_id: int) -> str:
        token_id = require_int(token_id, "token id", InvalidInput)
        if not 0 <= token_id < self.size:
            raise InvalidInput(f"token id out of range: {token_id}")
        return self.words[token_id]

    def is_object_word(self, word: str) -> bool:
        return word in self.object_words

    def patch_token_of(self, word: str) -> int:
        """Patch token id used by grid cells covered by ``word``."""
        try:
            return self._patch_ids[word]
        except KeyError:
            raise InvalidInput(f"not an object word: {word!r}") from None

    # -- persistence ----------------------------------------------------------
    def to_manifest(self) -> dict:
        return {
            "words": list(self.words),
            "object_words": list(self.object_words),
            "n_background": self.n_background,
        }

    @classmethod
    def from_manifest(cls, payload: dict) -> "Vocabulary":
        """Rebuild with ``make_vocab``; the stored ``words`` must be its table, whose
        size is checked first, so a stored ``n_background`` cannot build a larger one."""
        n_background = require_int(payload["n_background"], "vocabulary n_background", FormatError)
        size = len(SPECIALS) + 2 * len(payload["object_words"]) + n_background
        if len(payload["words"]) != size:
            raise FormatError(f"vocabulary stores {len(payload['words'])} words, not {size}")
        vocab = make_vocab(payload["object_words"], n_background)
        if payload["words"] != list(vocab.words):
            raise FormatError("vocabulary words differ from make_vocab(object_words, n_background)")
        return vocab


def make_vocab(object_words=DEFAULT_OBJECT_WORDS, n_background: int = 12) -> Vocabulary:
    """Assemble the full table: specials, text words, patch tokens, textures."""
    if not isinstance(object_words, (tuple, list)) or not all(
        isinstance(word, str) for word in object_words
    ):
        raise InvalidSpec(f"object words must be a tuple or list of str, got {object_words!r}")
    object_words = tuple(object_words)
    if not object_words:
        raise InvalidSpec("at least one object word is required")
    if len(set(object_words)) != len(object_words):
        raise InvalidSpec("object words contain duplicates")
    clashes = set(object_words) & set(SPECIALS)
    if clashes:
        raise InvalidSpec(f"object words collide with reserved tokens: {sorted(clashes)}")
    n_background = require_int(n_background, "vocabulary n_background", InvalidSpec)
    if n_background < 1:
        raise InvalidSpec("need at least one background token")
    patch_tokens = tuple(f"<p:{w}>" for w in object_words)
    background = tuple(f"<bg{i}>" for i in range(n_background))
    return Vocabulary(
        words=SPECIALS + object_words + patch_tokens + background,
        object_words=object_words,
        n_background=n_background,
    )
