"""The cell library and technology profiles.

Each gate kind carries its meaning, written once as a composition of
`and_`/`or_`/`xor_`/`not_` over an algebra argument: an `Aig` builds the
gate's and-inverter graph from it, a bit-vector algebra evaluates it.  A
technology profile is the only place that says which kinds are clocked,
along with fanout limits and the enabled checks.

Built-ins:
  rsfq  - every gate clocked except SPLIT; fanout 1 per gate, 2 per splitter;
          both structural checks on.
  aqfp  - splitters are clocked buffers (they add a logic level) and may
          drive 4 sinks; both checks on.
  cmos  - conventional technology: no fanout or balancing requirements,
          only DFF is clocked.
"""

from collections.abc import Callable
import operator

from .errors import SfqlecError, Value, parse_number


class GateKind:
    """A cell kind; the front end reads its fields once per gate, and an
    instance attribute reads faster than a tuple field."""

    __slots__ = ("name", "arity", "meaning")

    def __init__(self, name: str, arity: int, meaning: Callable):
        self.name, self.arity = name, arity
        self.meaning = meaning  # meaning(algebra, *fanins) -> output

    def __repr__(self) -> str:
        return f"GateKind(name={self.name!r}, arity={self.arity})"


def _identity(alg, a):
    return a


# The fixed cell library.  DFF, SPLIT and BUF are identities here; their
# time shift, if any, comes from the profile.
KINDS: dict[str, GateKind] = {
    k.name: k
    for k in (
        GateKind("AND2", 2, lambda alg, a, b: alg.and_(a, b)),
        GateKind("OR2", 2, lambda alg, a, b: alg.or_(a, b)),
        GateKind("XOR2", 2, lambda alg, a, b: alg.xor_(a, b)),
        GateKind("NAND2", 2, lambda alg, a, b: alg.not_(alg.and_(a, b))),
        GateKind("NOR2", 2, lambda alg, a, b: alg.not_(alg.or_(a, b))),
        GateKind("XNOR2", 2, lambda alg, a, b: alg.not_(alg.xor_(a, b))),
        GateKind("INV", 1, lambda alg, a: alg.not_(a)),
        GateKind("BUF", 1, _identity),
        GateKind("DFF", 1, _identity),
        GateKind("SPLIT", 1, _identity),
    )
}


class Bits:
    """The gate algebra over ints used as `mask`-wide parallel bit-vectors."""

    and_, or_, xor_ = operator.and_, operator.or_, operator.xor

    def __init__(self, mask: int = 1):
        self.mask = mask

    def not_(self, a: int) -> int:
        return self.mask ^ a


class ProfileError(SfqlecError):
    pass


class TechnologyProfile(Value):
    __slots__ = (
        "name", "default_fanout_limit", "splitter_fanout_limit", "non_clocked_kinds",
        "requires_path_balancing", "requires_fanout_check",
    )

    def __init__(
        self, name: str, default_fanout_limit: int, splitter_fanout_limit: int,
        non_clocked_kinds: frozenset[str], requires_path_balancing: bool,
        requires_fanout_check: bool,
    ):
        self.name, self.non_clocked_kinds = name, non_clocked_kinds
        self.default_fanout_limit = default_fanout_limit
        self.splitter_fanout_limit = splitter_fanout_limit
        self.requires_path_balancing = requires_path_balancing
        self.requires_fanout_check = requires_fanout_check

    def validate(self) -> None:
        if not self.name:
            raise ProfileError("profile name must not be empty")
        if self.default_fanout_limit < 1:
            raise ProfileError("default_fanout_limit must be >= 1")
        if self.splitter_fanout_limit < 2:
            raise ProfileError("splitter_fanout_limit must be >= 2")
        for kind in self.non_clocked_kinds:
            if kind not in KINDS:
                raise ProfileError(f"non_clocked_kinds names unknown kind {kind!r}")

    def is_clocked(self, kind_name: str) -> bool:
        return kind_name not in self.non_clocked_kinds


_UNLIMITED = 10**9

RSFQ = TechnologyProfile(
    name="rsfq",
    default_fanout_limit=1,
    splitter_fanout_limit=2,
    non_clocked_kinds=frozenset({"SPLIT"}),
    requires_path_balancing=True,
    requires_fanout_check=True,
)

_BUILTINS = {
    "rsfq": RSFQ,
    "aqfp": TechnologyProfile(
        name="aqfp",
        default_fanout_limit=1,
        splitter_fanout_limit=4,
        non_clocked_kinds=frozenset(),
        requires_path_balancing=True,
        requires_fanout_check=True,
    ),
    "cmos": TechnologyProfile(
        name="cmos",
        default_fanout_limit=_UNLIMITED,
        splitter_fanout_limit=_UNLIMITED,
        non_clocked_kinds=frozenset(k for k in KINDS if k != "DFF"),
        requires_path_balancing=False,
        requires_fanout_check=False,
    ),
}


def builtin_profile(name: str) -> TechnologyProfile:
    profile = _BUILTINS.get(name.lower())
    if profile is None:
        raise ProfileError(f"unknown builtin profile {name!r} (have: {', '.join(sorted(_BUILTINS))})")
    return profile


_BOOL_KEYS = ("requires_path_balancing", "requires_fanout_check")
_INT_KEYS = ("default_fanout_limit", "splitter_fanout_limit")


def load_profile(text: str) -> TechnologyProfile:
    """Parse the key = value profile format (comments with '#')."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProfileError(f"profile line {line_no}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ProfileError(f"profile line {line_no}: duplicate key {key!r}")
        values[key] = val

    required = {"name", *_INT_KEYS, "non_clocked_kinds", *_BOOL_KEYS}
    missing = sorted(required - set(values))
    if missing:
        raise ProfileError(f"profile missing key(s): {', '.join(missing)}")
    extra = sorted(set(values) - required)
    if extra:
        raise ProfileError(f"profile has unknown key(s): {', '.join(extra)}")

    def as_int(key: str) -> int:
        try:
            return parse_number(values[key])
        except ValueError:
            raise ProfileError(f"profile key {key} must be an integer") from None

    def as_bool(key: str) -> bool:
        val = values[key].lower()
        if val not in ("true", "false"):
            raise ProfileError(f"profile key {key} must be true or false")
        return val == "true"

    kinds_text = values["non_clocked_kinds"].strip()
    kinds = frozenset(k.strip().upper() for k in kinds_text.split(",") if k.strip())
    profile = TechnologyProfile(
        name=values["name"],
        default_fanout_limit=as_int("default_fanout_limit"),
        splitter_fanout_limit=as_int("splitter_fanout_limit"),
        non_clocked_kinds=kinds,
        requires_path_balancing=as_bool("requires_path_balancing"),
        requires_fanout_check=as_bool("requires_fanout_check"),
    )
    profile.validate()
    return profile


def resolve_profile(spec: str) -> TechnologyProfile:
    """Builtin name, or a path to a profile file."""
    try:
        return builtin_profile(spec)
    except ProfileError:
        pass
    try:
        with open(spec, "r", encoding="utf-8-sig") as fh:
            return load_profile(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ProfileError(f"cannot load profile {spec!r}: {exc}") from None
