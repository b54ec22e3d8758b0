"""One line cursor for every plain-text reader.

Scenario files, matrix triplets, complex, filtered and simplicial blocks,
graded directives and machine pages are all read through `Lines`, so every
block keeps the same rules: blank lines and lines starting with '#' are
skipped, a keyword is the whole first token of a line, a block ends at the
first line that is exactly its end marker, and a ParseError names the line's
number in the whole text, which for a scenario is its line in the file.
"""

from .errors import ParseError


class Line:
    """One kept line: its number in the text, its stripped text, its tokens."""

    __slots__ = ("no", "text", "words")

    def __init__(self, no, text):
        self.no = no
        self.text = text
        self.words = text.split()

    def error(self, message):
        return ParseError(message, line=self.no)

    def unexpected(self):
        return self.error(f"unexpected line {self.text!r}")

    def build(self, errors, make, *args):
        """make(*args), with an error of the given types raised at this line."""
        try:
            return make(*args)
        except errors as exc:
            raise self.error(str(exc)) from None

    def ints(self, tokens, bad=None, size=None):
        """The tokens as ints; a bad one raises `bad`, by default naming the token.
        With `size` set, a line without exactly that many tokens raises `bad` too."""
        if size not in (None, len(self.words)):
            raise self.error(bad)
        out = []
        for token in tokens:
            try:
                out.append(int(token))
            except ValueError:
                raise self.error(bad or f"expected an integer, got {token!r}") from None
        return out


class Lines:
    """Cursor over the kept lines of a text; iterating it reads the rest."""

    __slots__ = ("_items", "_pos", "end")

    def __init__(self, text):
        numbered = list(enumerate(text.splitlines(), 1))
        kept = ((no, raw.strip()) for no, raw in numbered)
        self._items = [Line(no, t) for no, t in kept if t and not t.startswith("#")]
        self._pos = 0
        self.end = len(numbered)  # the line reported when the text runs out

    @property
    def done(self):
        return self._pos == len(self._items)

    def copy(self):
        twin = Lines("")
        twin._items, twin._pos, twin.end = self._items, self._pos, self.end
        return twin

    def next(self, missing):
        """The next line; at the end of the text, raise ParseError(missing)."""
        if self.done:
            raise ParseError(missing, line=self.end)
        self._pos += 1
        return self._items[self._pos - 1]

    def __iter__(self):
        while not self.done:
            yield self.next(None)

    def header(self, keyword, size=None):
        """The next line, which must start with `keyword` and have `size` tokens."""
        line = self.next(f"missing {keyword} block")
        if line.words[0] != keyword or size not in (None, len(line.words)):
            raise line.error(f"bad {keyword} header {line.text!r}")
        return line

    def body(self, end, unclosed):
        """Yield the lines before the line `end`, and read that one too."""
        while (line := self.next(unclosed)).text != end:
            yield line

    def block(self, end, unclosed):
        """Read a block through its line `end`; a cursor over the lines before it."""
        body = Lines("")
        body._items = list(self.body(end, unclosed))
        body.end = self._items[self._pos - 1].no
        return body
