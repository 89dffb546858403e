"""Words in free products of finitely many finite groups: a test oracle.

The definitional reference that the kernel-word search of
``commwb._kernel_search`` is checked against; the package does not use it.
A word is an alternating sequence of syllables (factor index, non-identity
element) — the standard free-product normal form.  The module provides the
group operations on normal forms, the factor-deletion projections, fold
evaluation into a common target group, and a bounded enumerator for the
co-smash kernels: words all of whose single-factor deletions reduce to the
empty word.  For two factors this kernel is Ker(K+L -> KxL); for three it
is the intersection of the kernels of the three maps K+L+M -> K+L, K+M,
L+M obtained by killing one factor.

Only group factors are supported; free products of general pointed
algebras have no comparably tractable normal form, and callers needing
those fall back to term-based strategies elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from commwb._kernel_search import DEFAULT_WORD_BOUND
from commwb.core import FinAlgebra, Hom, ValidationError

__all__ = [
    "Word",
    "identity_word",
    "make_word",
    "word_multiply",
    "word_inverse",
    "delete_factor",
    "evaluate",
    "cosmash_kernel_words",
]


def _require_group(alg: FinAlgebra) -> None:
    ops = dict(alg.signature.ops)
    if ops.get("mul") != 2 or ops.get("inv") != 1 or \
            alg.signature.basepoint_op not in ops:
        raise ValidationError(
            f"free-product factors must be groups, got signature {ops}")


@dataclass(frozen=True)
class Word:
    """Reduced word: factor indices alternate, no identity syllables."""

    factors: tuple[FinAlgebra, ...]
    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(
            self, "syllables",
            tuple((int(f), int(x)) for f, x in self.syllables))
        for alg in self.factors:
            _require_group(alg)
        prev = -1
        for f, x in self.syllables:
            if not 0 <= f < len(self.factors):
                raise ValidationError(f"factor index {f} out of range")
            if f == prev:
                raise ValidationError("adjacent syllables share a factor")
            if not 0 < x < self.factors[f].size:
                if x == self.factors[f].basepoint:
                    raise ValidationError("identity-element syllable")
                raise ValidationError(f"element {x} out of range in factor {f}")
            if x == self.factors[f].basepoint:
                raise ValidationError("identity-element syllable")
            prev = f

    def __len__(self) -> int:
        return len(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def pretty(self) -> str:
        if not self.syllables:
            return "1"
        return "*".join(f"{f}:{self.factors[f].label(x)}"
                        for f, x in self.syllables)


def identity_word(factors: Sequence[FinAlgebra]) -> Word:
    return Word(tuple(factors), ())


def _push(stack: list, factors, f: int, x: int) -> None:
    """Append one syllable to a reduced stack, merging at the seam."""
    alg = factors[f]
    if x == alg.basepoint:
        return
    if stack and stack[-1][0] == f:
        merged = int(alg.tables["mul"][stack[-1][1], x])
        stack.pop()
        if merged != alg.basepoint:
            stack.append((f, merged))
    else:
        stack.append((f, x))


def make_word(factors: Sequence[FinAlgebra],
              syllables: Iterable[tuple[int, int]]) -> Word:
    """Reduce an arbitrary syllable sequence to normal form."""
    factors = tuple(factors)
    stack: list[tuple[int, int]] = []
    for f, x in syllables:
        if not 0 <= int(f) < len(factors):
            raise ValidationError(f"factor index {f} out of range")
        _push(stack, factors, int(f), int(x))
    return Word(factors, tuple(stack))


def _same_factors(u: Word, v: Word) -> None:
    if len(u.factors) != len(v.factors) or \
            any(a is not b for a, b in zip(u.factors, v.factors)):
        raise ValidationError("words live in different free products")


def word_multiply(u: Word, v: Word) -> Word:
    _same_factors(u, v)
    stack = list(u.syllables)
    for f, x in v.syllables:
        _push(stack, u.factors, f, x)
    return Word(u.factors, tuple(stack))


def word_inverse(u: Word) -> Word:
    syl = tuple((f, int(u.factors[f].tables["inv"][x]))
                for f, x in reversed(u.syllables))
    return Word(u.factors, syl)


def delete_factor(u: Word, i: int) -> Word:
    """Kill factor ``i`` (compose with its zero map) and re-reduce."""
    if not 0 <= i < len(u.factors):
        raise ValidationError(f"factor index {i} out of range")
    stack: list[tuple[int, int]] = []
    for f, x in u.syllables:
        if f != i:
            _push(stack, u.factors, f, x)
    return Word(u.factors, tuple(stack))


def evaluate(u: Word, homs: Sequence[Hom]) -> int:
    """Fold the word through per-factor maps into their common codomain."""
    if len(homs) != len(u.factors):
        raise ValidationError("need one hom per factor")
    for i, h in enumerate(homs):
        if h.dom is not u.factors[i]:
            raise ValidationError(f"hom {i} has the wrong domain")
        if h.cod is not homs[0].cod:
            raise ValidationError("homs must share a codomain")
    target = homs[0].cod
    mul = target.tables["mul"]
    val = target.basepoint
    for f, x in u.syllables:
        val = int(mul[val, homs[f](x)])
    return val


def cosmash_kernel_words(factors: Sequence[FinAlgebra],
                         max_len: int = DEFAULT_WORD_BOUND) -> Iterator[Word]:
    """All reduced words of length <= max_len whose single-factor deletions
    all reduce to the empty word, in order of increasing length.

    Sound (every emitted word is in the kernel, re-verified on emission)
    but complete only up to the bound.  Two or three factors.

    The walk keeps every deletion of the prefix as a reduced stack.  One
    more syllable changes a deletion by at most one syllable, so a prefix
    with a deletion longer than the syllables still to come cannot reach
    the kernel, and its extensions are skipped.  Pruning drops only such
    prefixes, so the words and their order are those of the full walk.
    """
    factors = tuple(factors)
    if len(factors) not in (2, 3):
        raise ValidationError("co-smash enumeration needs 2 or 3 factors")
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    for alg in factors:
        _require_group(alg)

    nonidentity = [
        [x for x in range(alg.size) if x != alg.basepoint] for alg in factors
    ]

    def emit_check(word: Word) -> Word:
        for i in range(len(factors)):
            assert delete_factor(word, i).is_identity, \
                "enumerator produced a non-kernel word"
        return word

    yield emit_check(identity_word(factors))

    prefix: list[tuple[int, int]] = []

    def extend(length: int, deletions: list) -> Iterator[Word]:
        if any(len(stack) > length for stack in deletions):
            return
        if length == 0:
            yield emit_check(Word(factors, tuple(prefix)))
            return
        last = prefix[-1][0] if prefix else -1
        for f in range(len(factors)):
            if f == last:
                continue
            for x in nonidentity[f]:
                grown = []
                for i, stack in enumerate(deletions):
                    if i != f:
                        stack = list(stack)
                        _push(stack, factors, f, x)
                    grown.append(stack)
                prefix.append((f, x))
                yield from extend(length - 1, grown)
                prefix.pop()

    for length in range(1, max_len + 1):
        yield from extend(length, [[] for _ in factors])
