"""Exception types shared across the workbench.

Every error carries an optional source position so the DSL front end can
report ``file:line:col`` diagnostics; errors raised from the programmatic
API usually leave the position unset.
"""


class LawbenchError(Exception):
    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        base = super().__str__()
        if self.line is not None:
            return f"{self.line}:{self.col}: {base}"
        return base


class UnboundVariable(LawbenchError):
    """A leaf token has no binding in the substitution or environment."""


class UnknownSymbol(LawbenchError):
    """An operation symbol or constant family is not declared."""


class ArityMismatch(LawbenchError):
    """An application has the wrong number of arguments."""


class NotInTheorySignature(LawbenchError):
    """A term uses symbols the theory's normal forms cannot interpret."""


class AlphabetMismatch(LawbenchError):
    """Two behaviour steps or a step and a word disagree on the alphabet."""


class MissingRule(LawbenchError):
    """The rule table has no entry for a symbol that was applied."""


class PlaceholderViolation(LawbenchError):
    """A rule template uses placeholders it did not declare, or uses
    argument placeholders under the simple rule format."""


class SymbolicCaseSplit(LawbenchError):
    """A rule case-splits under rational outputs, whose values may be
    symbolic; a case split reads a Boolean output's bit."""


class InvalidGrammar(LawbenchError):
    """A grammar in Greibach normal form failed validation."""


class ParseError(LawbenchError):
    """The DSL text could not be parsed."""


class MissingSection(LawbenchError):
    """A command needs a workbench section that the file does not provide."""
