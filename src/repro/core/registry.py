"""User registration, authentication, and access rights.

The paper (§2): "An off-line procedure has been implemented for
registering new BIPS users.  The procedure associates the name of a
user with a user identifier (userid).  In this phase, a password and a
set of access rights are defined for enforcing security and privacy
issues."  Login then creates the one-to-one userid ↔ BD_ADDR binding
that tracking and queries operate on.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.bluetooth.address import BDAddr
from repro.sim.hotpath import hot_path

from .errors import (
    AccessDeniedError,
    AuthenticationError,
    NotLoggedInError,
    RegistrationError,
    UnknownUserError,
)


class VisibilityPolicy(enum.Enum):
    """Who may locate this user.

    * ``EVERYONE`` — any logged-in BIPS user.
    * ``LISTED`` — only userids in the user's allow list.
    * ``NOBODY`` — location queries always denied (tracking still runs,
      e.g. for the user's own navigation).
    """

    EVERYONE = "everyone"
    LISTED = "listed"
    NOBODY = "nobody"


#: Read once: on CPython 3.11 every ``VisibilityPolicy.EVERYONE`` goes
#: through ``EnumType.__getattr__``, about four times a plain lookup,
#: and :meth:`UserRegistry.check_query_allowed` runs on every query.
_EVERYONE = VisibilityPolicy.EVERYONE


def _hash_password(password: str, salt: str) -> str:
    """Salted SHA-256; enough for a simulation, shaped like the real thing."""
    return hashlib.sha256(f"{salt}:{password}".encode("utf-8")).hexdigest()


@dataclass
class UserRecord:
    """One registered user."""

    userid: str
    username: str
    password_hash: str
    salt: str
    policy: VisibilityPolicy = VisibilityPolicy.EVERYONE
    allowed_queriers: set[str] = field(default_factory=set)

    def may_be_located_by(self, querier_userid: str) -> bool:
        """Access-rights check for a location/path query."""
        if querier_userid == self.userid:
            return True
        if self.policy is VisibilityPolicy.EVERYONE:
            return True
        if self.policy is VisibilityPolicy.NOBODY:
            return False
        return querier_userid in self.allowed_queriers


@dataclass(frozen=True)
class Session:
    """A live login: the userid ↔ BD_ADDR binding."""

    userid: str
    device: BDAddr
    login_tick: int


class UserRegistry:
    """Registration (off-line) and login (on-line) for BIPS users."""

    def __init__(self) -> None:
        self._users: dict[str, UserRecord] = {}
        self._by_username: dict[str, UserRecord] = {}
        self._sessions: dict[str, Session] = {}
        self._device_to_userid: dict[BDAddr, str] = {}

    # -- off-line registration ------------------------------------------------

    def register(
        self,
        userid: str,
        username: str,
        password: str,
        policy: VisibilityPolicy = VisibilityPolicy.EVERYONE,
        allowed_queriers: Optional[set[str]] = None,
    ) -> UserRecord:
        """Register a new user; userids and usernames must be unique."""
        if not userid or not username:
            raise RegistrationError("userid and username must be non-empty")
        if userid in self._users:
            raise RegistrationError(f"duplicate userid {userid!r}")
        if username in self._by_username:
            raise RegistrationError(f"duplicate username {username!r}")
        salt = hashlib.sha256(userid.encode("utf-8")).hexdigest()[:16]
        record = UserRecord(
            userid=userid,
            username=username,
            password_hash=_hash_password(password, salt),
            salt=salt,
            policy=policy,
            allowed_queriers=set(allowed_queriers or ()),
        )
        self._users[userid] = record
        self._by_username[username] = record
        return record

    def user(self, userid: str) -> UserRecord:
        """Look up by userid."""
        record = self._users.get(userid)
        if record is None:
            raise UnknownUserError(f"unknown userid {userid!r}")
        return record

    def user_by_name(self, username: str) -> UserRecord:
        """Look up by display name (the form queries use)."""
        record = self._by_username.get(username)
        if record is None:
            raise UnknownUserError(f"unknown username {username!r}")
        return record

    # -- login -------------------------------------------------------------------

    def login(self, userid: str, password: str, device: BDAddr, tick: int) -> Session:
        """Authenticate and bind ``device`` to ``userid``.

        A device already bound to another user is refused; re-login of
        the same user moves the binding to the new device (they switched
        handhelds).
        """
        record = self._users.get(userid)
        if record is None:
            raise AuthenticationError(f"unknown userid {userid!r}")
        if _hash_password(password, record.salt) != record.password_hash:
            raise AuthenticationError(f"wrong password for {userid!r}")
        bound = self._device_to_userid.get(device)
        if bound is not None and bound != userid:
            raise AuthenticationError(
                f"device {device} is already bound to userid {bound!r}"
            )
        existing = self._sessions.get(userid)
        if existing is not None:
            self._device_to_userid.pop(existing.device, None)
        session = Session(userid=userid, device=device, login_tick=tick)
        self._sessions[userid] = session
        self._device_to_userid[device] = userid
        return session

    def is_logged_in(self, userid: str) -> bool:
        """Whether the user has a live session."""
        return userid in self._sessions

    def session_of(self, userid: str) -> Session:
        """The live session; raises if not logged in."""
        session = self._sessions.get(userid)
        if session is None:
            raise NotLoggedInError(f"user {userid!r} is not logged in")
        return session

    def userid_of_device(self, device: BDAddr) -> Optional[str]:
        """Reverse lookup: who is carrying ``device`` (None if nobody)."""
        return self._device_to_userid.get(device)

    # -- access control ---------------------------------------------------------

    @hot_path
    def check_query_allowed(self, querier_userid: str, target_username: str) -> Session:
        """Enforce §2's pre-query checks.

        Verifies the querier is logged in, the target exists and is
        logged in, and the target's access rights admit the querier.
        Returns the target's live session (its userid and device) on
        success.  The policy is read from the live record on every
        call, so a change after login applies to the next query.
        """
        sessions = self._sessions
        if querier_userid not in sessions:
            raise NotLoggedInError(f"querier {querier_userid!r} is not logged in")
        target = self._by_username.get(target_username)
        if target is None:
            raise UnknownUserError(f"unknown username {target_username!r}")
        session = sessions.get(target.userid)
        if session is None:
            raise NotLoggedInError(f"target user {target_username!r} is not logged in")
        if (
            target.policy is not _EVERYONE
            and querier_userid != target.userid
            and not target.may_be_located_by(querier_userid)
        ):
            raise AccessDeniedError(
                f"user {querier_userid!r} may not locate {target_username!r}"
            )
        return session
