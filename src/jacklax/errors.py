"""Exception types shared across the library."""


class JackLaxError(ValueError):
    pass


class ZeroDenominator(JackLaxError):
    pass


class PoleAtSpecPoint(JackLaxError):
    pass


class NotAPole(JackLaxError):
    pass


class NotASimplePole(JackLaxError):
    pass


class BoxNotInPartition(JackLaxError):
    pass


class DegreeMismatch(JackLaxError):
    pass


class InhomogeneousForPiStar(JackLaxError):
    pass


class NotAnAddableBox(JackLaxError):
    pass


class NotARemovableCorner(JackLaxError):
    pass


class EmptyPartition(JackLaxError):
    pass


class NotInNullSpace(JackLaxError):
    pass


class NotGood(JackLaxError):
    pass


class NotACycle(JackLaxError):
    pass


class BadSpecPoint(JackLaxError):
    pass


class BadPartition(JackLaxError):
    pass


class BadBox(JackLaxError):
    pass


class BadSize(JackLaxError):
    pass


class NotSplit(JackLaxError):
    pass
