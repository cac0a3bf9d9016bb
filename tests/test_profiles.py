import pytest

from reference import write_profile
from sfqlec import builtin_profile, load_profile, resolve_profile
from sfqlec.profiles import ProfileError


def test_rsfq_profile_shape():
    p = builtin_profile("rsfq")
    assert p.default_fanout_limit == 1
    assert p.splitter_fanout_limit == 2
    assert p.non_clocked_kinds == frozenset({"SPLIT"})
    assert p.requires_path_balancing and p.requires_fanout_check
    assert p.is_clocked("AND2") and p.is_clocked("DFF")
    assert not p.is_clocked("SPLIT")


def test_aqfp_splitters_are_clocked():
    p = builtin_profile("aqfp")
    assert p.is_clocked("SPLIT")
    assert p.splitter_fanout_limit == 4


def test_cmos_profile_relaxes_everything():
    p = builtin_profile("cmos")
    assert not p.requires_path_balancing
    assert not p.requires_fanout_check
    assert not p.is_clocked("AND2")
    assert p.is_clocked("DFF")


def test_builtin_profile_unknown_name():
    with pytest.raises(ProfileError):
        builtin_profile("ecl")


def test_profile_text_roundtrip():
    for name in ("rsfq", "aqfp", "cmos"):
        p = builtin_profile(name)
        assert load_profile(write_profile(p)) == p


def test_load_profile_accepts_comments_and_case():
    text = """
# custom tech
name = toy
default_fanout_limit = 2   # generous
splitter_fanout_limit = 3
non_clocked_kinds = split, buf
requires_path_balancing = TRUE
requires_fanout_check = false
"""
    p = load_profile(text)
    assert p.name == "toy"
    assert p.non_clocked_kinds == frozenset({"SPLIT", "BUF"})
    assert p.requires_path_balancing and not p.requires_fanout_check


def test_load_profile_rejects_bad_text():
    good = write_profile(builtin_profile("rsfq"))
    for text in (
        "name = x\n",  # missing keys
        good + "bogus_key = 1\n",
        good + "name = twice\n",
        good.replace("= 1", "= one", 1),
        good.replace("non_clocked_kinds = SPLIT", "non_clocked_kinds = WIDGET"),
        "just words\n",
    ):
        with pytest.raises(ProfileError):
            load_profile(text)


def test_load_profile_validates_limits():
    good = write_profile(builtin_profile("rsfq"))
    with pytest.raises(ProfileError):
        load_profile(good.replace("default_fanout_limit = 1", "default_fanout_limit = 0"))
    with pytest.raises(ProfileError):
        load_profile(good.replace("splitter_fanout_limit = 2", "splitter_fanout_limit = 1"))


def test_load_profile_takes_only_ascii_decimal_digits():
    # `int()` alone reads 1_000 as 1000 and an Arabic-Indic one as 1
    good = write_profile(builtin_profile("rsfq"))
    for val in ("1_000", "\u0661", "1.0", "+-1", "0x1", "9" * 5000):
        with pytest.raises(ProfileError, match="profile key default_fanout_limit must be an integer"):
            load_profile(good.replace("default_fanout_limit = 1", f"default_fanout_limit = {val}"))
    assert load_profile(good.replace("default_fanout_limit = 1", "default_fanout_limit = +3")).default_fanout_limit == 3
    with pytest.raises(ProfileError, match="default_fanout_limit must be >= 1"):
        load_profile(good.replace("default_fanout_limit = 1", "default_fanout_limit = -1"))


def test_load_profile_rejects_an_empty_name():
    good = write_profile(builtin_profile("rsfq"))
    for name in ("name =", "name =   ", "name = # none"):
        with pytest.raises(ProfileError, match="profile name must not be empty"):
            load_profile(good.replace("name = rsfq", name))


def test_resolve_profile_by_name_and_path(tmp_path):
    assert resolve_profile("rsfq") == builtin_profile("rsfq")
    path = tmp_path / "custom.profile"
    custom = write_profile(builtin_profile("aqfp")).replace("name = aqfp", "name = lab")
    path.write_text(custom)
    assert resolve_profile(str(path)).name == "lab"
    with pytest.raises(ProfileError):
        resolve_profile("no-such-profile-or-file")


def test_resolve_profile_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.profile"
    path.write_bytes(b"\xef\xbb\xbf" + write_profile(builtin_profile("aqfp")).encode())
    assert resolve_profile(str(path)) == builtin_profile("aqfp")
