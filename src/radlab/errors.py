"""Exception types shared across the package."""


class RadlabError(Exception):
    """Base class for all package-specific errors."""


class CycleParseError(RadlabError, ValueError):
    """Cycle notation text is malformed, repeats a point, or exceeds the degree."""


class DegreeMismatchError(RadlabError, ValueError):
    """Permutations or groups of different degrees were mixed."""


class MembershipError(RadlabError, ValueError):
    """An element was required to lie in a group and does not."""


class CapExceededError(RadlabError, RuntimeError):
    """An enumeration, class materialization, or pair budget was exhausted.

    Distinct from a negative search result: the search did not finish.
    """


class GroupFileError(RadlabError, ValueError):
    """A group definition file does not follow the group file schema."""


class OrderMismatchError(RadlabError, ValueError):
    """A constructed group's order disagrees with its declared expected order."""


class UnfactorableError(RadlabError, ValueError):
    """The integer has a composite cofactor with no prime factor below 2^16."""


class PreconditionError(RadlabError, ValueError):
    """An operation's mathematical precondition on its arguments fails."""
