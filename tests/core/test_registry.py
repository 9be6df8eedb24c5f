"""Tests for user registration, login, and access rights."""

from __future__ import annotations

import pytest

from repro.bluetooth.address import BDAddr
from repro.core.errors import (
    AccessDeniedError,
    AuthenticationError,
    NotLoggedInError,
    RegistrationError,
    UnknownUserError,
)
from repro.core.registry import UserRegistry, VisibilityPolicy

ALICE_DEV = BDAddr(0x100)
BOB_DEV = BDAddr(0x200)


@pytest.fixture
def registry() -> UserRegistry:
    reg = UserRegistry()
    reg.register("u-alice", "Alice", "pw-a")
    reg.register("u-bob", "Bob", "pw-b")
    return reg


class TestRegistration:
    def test_lookup_by_id_and_name(self, registry):
        assert registry.user("u-alice").username == "Alice"
        assert registry.user_by_name("Bob").userid == "u-bob"

    def test_duplicate_userid_rejected(self, registry):
        with pytest.raises(RegistrationError):
            registry.register("u-alice", "Other", "pw")

    def test_duplicate_username_rejected(self, registry):
        with pytest.raises(RegistrationError):
            registry.register("u-other", "Alice", "pw")

    def test_empty_fields_rejected(self):
        registry = UserRegistry()
        with pytest.raises(RegistrationError):
            registry.register("", "Name", "pw")
        with pytest.raises(RegistrationError):
            registry.register("id", "", "pw")

    def test_unknown_lookups_raise(self, registry):
        with pytest.raises(UnknownUserError):
            registry.user("ghost")
        with pytest.raises(UnknownUserError):
            registry.user_by_name("Ghost")

    def test_password_not_stored_in_clear(self, registry):
        record = registry.user("u-alice")
        assert "pw-a" not in record.password_hash


class TestLoginLogout:
    def test_login_binds_device(self, registry):
        session = registry.login("u-alice", "pw-a", ALICE_DEV, tick=100)
        assert session.device == ALICE_DEV
        assert registry.is_logged_in("u-alice")
        assert registry.device_of("u-alice") == ALICE_DEV
        assert registry.userid_of_device(ALICE_DEV) == "u-alice"

    def test_wrong_password_rejected(self, registry):
        with pytest.raises(AuthenticationError):
            registry.login("u-alice", "wrong", ALICE_DEV, tick=0)
        assert not registry.is_logged_in("u-alice")

    def test_unknown_userid_rejected(self, registry):
        with pytest.raises(AuthenticationError):
            registry.login("ghost", "pw", ALICE_DEV, tick=0)

    def test_device_bound_to_other_user_rejected(self, registry):
        registry.login("u-alice", "pw-a", ALICE_DEV, tick=0)
        with pytest.raises(AuthenticationError):
            registry.login("u-bob", "pw-b", ALICE_DEV, tick=5)

    def test_relogin_moves_binding_to_new_device(self, registry):
        registry.login("u-alice", "pw-a", ALICE_DEV, tick=0)
        registry.login("u-alice", "pw-a", BDAddr(0x300), tick=10)
        assert registry.device_of("u-alice") == BDAddr(0x300)
        assert registry.userid_of_device(ALICE_DEV) is None

    def test_logout_unbinds(self, registry):
        registry.login("u-alice", "pw-a", ALICE_DEV, tick=0)
        registry.logout("u-alice")
        assert not registry.is_logged_in("u-alice")
        assert registry.userid_of_device(ALICE_DEV) is None

    def test_logout_is_idempotent(self, registry):
        registry.logout("u-alice")  # never logged in: no error

    def test_device_of_requires_login(self, registry):
        with pytest.raises(NotLoggedInError):
            registry.device_of("u-alice")


class TestAccessRights:
    def test_everyone_policy(self, registry):
        registry.login("u-alice", "pw-a", ALICE_DEV, tick=0)
        registry.login("u-bob", "pw-b", BOB_DEV, tick=0)
        target = registry.check_query_allowed("u-bob", "Alice")
        assert target.userid == "u-alice"

    def test_nobody_policy(self):
        registry = UserRegistry()
        registry.register("u-a", "A", "pw", policy=VisibilityPolicy.NOBODY)
        registry.register("u-b", "B", "pw")
        registry.login("u-a", "pw", ALICE_DEV, tick=0)
        registry.login("u-b", "pw", BOB_DEV, tick=0)
        with pytest.raises(AccessDeniedError):
            registry.check_query_allowed("u-b", "A")

    def test_nobody_policy_allows_self(self):
        registry = UserRegistry()
        registry.register("u-a", "A", "pw", policy=VisibilityPolicy.NOBODY)
        registry.login("u-a", "pw", ALICE_DEV, tick=0)
        assert registry.check_query_allowed("u-a", "A").userid == "u-a"

    def test_listed_policy(self):
        registry = UserRegistry()
        registry.register(
            "u-a", "A", "pw",
            policy=VisibilityPolicy.LISTED, allowed_queriers={"u-b"},
        )
        registry.register("u-b", "B", "pw")
        registry.register("u-c", "C", "pw")
        for userid, device in (("u-a", BDAddr(1)), ("u-b", BDAddr(2)), ("u-c", BDAddr(3))):
            registry.login(userid, "pw", device, tick=0)
        assert registry.check_query_allowed("u-b", "A").userid == "u-a"
        with pytest.raises(AccessDeniedError):
            registry.check_query_allowed("u-c", "A")

    def test_querier_must_be_logged_in(self, registry):
        registry.login("u-alice", "pw-a", ALICE_DEV, tick=0)
        with pytest.raises(NotLoggedInError):
            registry.check_query_allowed("u-bob", "Alice")

    def test_target_must_be_logged_in(self, registry):
        registry.login("u-bob", "pw-b", BOB_DEV, tick=0)
        with pytest.raises(NotLoggedInError):
            registry.check_query_allowed("u-bob", "Alice")

    def test_unknown_target(self, registry):
        registry.login("u-bob", "pw-b", BOB_DEV, tick=0)
        with pytest.raises(UnknownUserError):
            registry.check_query_allowed("u-bob", "Ghost")

    def test_returns_the_targets_live_session(self, registry):
        registry.login("u-alice", "pw-a", ALICE_DEV, tick=0)
        registry.login("u-bob", "pw-b", BOB_DEV, tick=0)
        assert registry.check_query_allowed("u-bob", "Alice").device == ALICE_DEV
        # A re-login on another handheld is the next query's answer.
        registry.login("u-alice", "pw-a", BDAddr(0x300), tick=5)
        assert registry.check_query_allowed("u-bob", "Alice").device == BDAddr(0x300)


class TestCheckPrecedence:
    """When several checks fail at once, the first in §2's order wins:
    querier logged in, target known, target logged in, access."""

    @pytest.fixture
    def hidden(self) -> UserRegistry:
        registry = UserRegistry()
        registry.register("u-a", "A", "pw", policy=VisibilityPolicy.NOBODY)
        registry.register("u-b", "B", "pw")
        return registry

    def test_logged_out_querier_before_unknown_target(self, registry):
        with pytest.raises(NotLoggedInError, match="querier 'u-bob'"):
            registry.check_query_allowed("u-bob", "Ghost")

    def test_logged_out_querier_before_denied_access(self, hidden):
        hidden.login("u-a", "pw", ALICE_DEV, tick=0)
        with pytest.raises(NotLoggedInError, match="querier 'u-b'"):
            hidden.check_query_allowed("u-b", "A")

    def test_unknown_querier_is_a_logged_out_querier(self, registry):
        registry.login("u-alice", "pw-a", ALICE_DEV, tick=0)
        with pytest.raises(NotLoggedInError, match="querier 'u-ghost'"):
            registry.check_query_allowed("u-ghost", "Alice")

    def test_logged_out_target_before_denied_access(self, hidden):
        hidden.login("u-b", "pw", BOB_DEV, tick=0)
        with pytest.raises(NotLoggedInError, match="target user 'A'"):
            hidden.check_query_allowed("u-b", "A")


class TestPolicyIsReadLive:
    """``policy`` and ``allowed_queriers`` are mutable; a change made
    after login applies to the very next query."""

    def _logged_in(self) -> UserRegistry:
        registry = UserRegistry()
        registry.register("u-a", "A", "pw")
        registry.register("u-b", "B", "pw")
        registry.login("u-a", "pw", ALICE_DEV, tick=0)
        registry.login("u-b", "pw", BOB_DEV, tick=0)
        return registry

    def test_hiding_after_login_denies_the_next_query(self):
        registry = self._logged_in()
        assert registry.check_query_allowed("u-b", "A").userid == "u-a"
        registry.user("u-a").policy = VisibilityPolicy.NOBODY
        with pytest.raises(AccessDeniedError):
            registry.check_query_allowed("u-b", "A")
        # The owner still locates themself.
        assert registry.check_query_allowed("u-a", "A").userid == "u-a"

    def test_opening_after_login_admits_the_next_query(self):
        registry = self._logged_in()
        record = registry.user("u-a")
        record.policy = VisibilityPolicy.LISTED
        with pytest.raises(AccessDeniedError):
            registry.check_query_allowed("u-b", "A")
        record.allowed_queriers.add("u-b")
        assert registry.check_query_allowed("u-b", "A").userid == "u-a"
        record.policy = VisibilityPolicy.EVERYONE
        record.allowed_queriers.clear()
        assert registry.check_query_allowed("u-b", "A").userid == "u-a"
