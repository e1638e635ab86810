"""Data-sovereignty connectors: contracts, usage policies, enforcement, audit.

A provider connector offers an archived object to a consumer connector
under a usage policy (bounded read count, expiry on the logical clock,
forwarding permission, purpose). The provider enforces the policy at every
consume; the consumer connector erases its cached copy the moment a
bounded contract exhausts, so "view once" means exactly one delivery and
no retained bytes.

All cross-connector traffic runs over SOVEREIGN-channel frames, opcode
byte first, so the exchange is observable on the wire. Every connector
keeps an append-only audit log; replaying a contract's audit events
reconstructs its state exactly (event-sourcing equivalence).
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from .archive import Archive, DataObject, UnknownUID, append_line, decode_object
from .errors import Nde4Error
from .framing import (
    NULL, OP_ERROR, Channel, canonical_json, decode_frame, dispatch, encode_frame,
    error_payload, json_body, json_table, serve_frame,
)
from .identity import InstanceId
from .semantics import is_id_token
from .timebase import LogicalClock, is_valid_datetime

# SOVEREIGN-channel opcodes (1-byte prefix on channel-3 frame payloads)
OP_OFFER = 0x11
OP_ACCEPT = 0x12
OP_CONSUME = 0x13
OP_DATA = 0x14
OP_FORWARD = 0x15
OP_DENY = 0x7E
# OP_ERROR (0x7F) is the framing module's, re-exported here

AUDIT_FILE_PREFIX = "audit-"
AUDIT_FILE_SUFFIX = ".log"

# audit actions
OFFER = "OFFER"
ACCEPT = "ACCEPT"
READ = "READ"
DELETE = "DELETE"
DENY = "DENY"
REVOKE = "REVOKE"
EXPIRE = "EXPIRE"

# contract states
OFFERED = "OFFERED"
ACTIVE = "ACTIVE"
EXHAUSTED = "EXHAUSTED"
EXPIRED = "EXPIRED"
REVOKED = "REVOKED"

TERMINAL = frozenset({EXHAUSTED, EXPIRED, REVOKED})

# max_reads value meaning "no read bound"
UNLIMITED = None


class InvalidPolicy(Nde4Error):
    """Usage policy violates a bound or expiry rule."""


class UnknownContract(Nde4Error):
    """No contract with this id on this connector."""


class WrongConsumer(Nde4Error):
    """Operation attempted by a party the contract does not name."""


class WrongState(Nde4Error):
    """Contract is not in the state the operation requires."""


class PolicyExhausted(Nde4Error):
    """The bounded read count is used up."""


class PolicyExpired(Nde4Error):
    """The contract expired on the logical clock."""


class ForwardProhibited(Nde4Error):
    """The policy forbids forwarding to third parties."""


@dataclass(frozen=True, slots=True)
class UsagePolicy:
    max_reads: int | None = UNLIMITED
    expires: str | None = None
    allow_forward: bool = False
    purpose: str = "inspection"


def policy_problems(policy: UsagePolicy, now_text: str) -> tuple[str, ...]:
    problems = []
    if policy.max_reads is not UNLIMITED:
        if type(policy.max_reads) is not int or policy.max_reads < 1:
            problems.append(f"max_reads must be >= 1 or UNLIMITED: {policy.max_reads!r}")
    if policy.expires is not None:
        if type(policy.expires) is not str or not is_valid_datetime(policy.expires):
            problems.append(f"expires not a valid datetime: {policy.expires!r}")
        elif policy.expires <= now_text:
            problems.append(f"expires not in the future: {policy.expires}")
    if not is_id_token(policy.purpose):
        problems.append(f"purpose not a valid token: {policy.purpose!r}")
    return tuple(problems)


@dataclass(frozen=True, slots=True)
class AuditEvent:
    at: str
    contract_id: str
    action: str
    detail: str = ""


@dataclass
class UsageContract:
    contract_id: str
    provider: InstanceId
    consumer: InstanceId
    object_uid: str
    policy: UsagePolicy
    state: str = OFFERED
    reads_done: int = 0
    origin: str = ""  # owner id of the connector whose archive holds the bytes

    @property
    def remaining_reads(self) -> int | None:
        if self.policy.max_reads is UNLIMITED:
            return None
        return self.policy.max_reads - self.reads_done


def replay(policy: UsagePolicy, events: Iterable[AuditEvent]) -> tuple[str, int]:
    """Reconstruct (state, reads_done) from one contract's audit events."""
    state = OFFERED
    reads = 0
    for event in events:
        if event.action == OFFER:
            state = OFFERED
        elif event.action == ACCEPT:
            state = ACTIVE
        elif event.action == READ:
            reads += 1
            if policy.max_reads is not UNLIMITED and reads >= policy.max_reads:
                state = EXHAUSTED
        elif event.action == EXPIRE:
            state = EXPIRED
        elif event.action == REVOKE:
            state = REVOKED
        # DELETE and DENY change no contract state
    return state, reads


# policy JSON (docs/FORMATS.md) to a UsagePolicy; scenarios use it too
policy_from_wire = json_table(UsagePolicy, (
    ("max_reads", "maxReads", {int: int, NULL: NULL}),
    ("expires", "expires", {str: str, NULL: NULL}),
    ("allow_forward", "allowForward", bool),
    ("purpose", "purpose", str),
))


# SOVEREIGN request bodies: one key table per Connector handler (docs/FORMATS.md)
_SENDER_BODY = (("contract_id", "contractId", str), ("sender", "from", str))
_OFFER_BODY = (
    ("contract_id", "contractId", str),
    ("provider", "provider", str),
    ("consumer", "consumer", str),
    ("object_uid", "objectUid", str),
    ("policy", "policy", policy_from_wire),
)
_FORWARD_BODY = _SENDER_BODY + (
    ("requested", "requestedPolicy", {NULL: NULL, dict: policy_from_wire}),
)


def _policy_to_wire(policy: UsagePolicy) -> dict:
    return {key: getattr(policy, name) for name, key, _ in policy_from_wire.rows}


def clamp_policy(parent: UsagePolicy, remaining: int | None,
                 requested: UsagePolicy | None) -> UsagePolicy:
    """Derived policy is never weaker than the parent's remainder:
    max_reads <= remaining, expires <= parent's, forwarding only if both
    sides allow it. A missing request inherits the clamped parent policy."""
    if requested is None:
        requested = replace(parent, max_reads=remaining)
    if remaining is None:
        max_reads = requested.max_reads
    elif requested.max_reads is UNLIMITED:
        max_reads = remaining
    else:
        max_reads = min(requested.max_reads, remaining)
    if parent.expires is None:
        expires = requested.expires
    elif requested.expires is None:
        expires = parent.expires
    else:
        expires = min(requested.expires, parent.expires)
    return UsagePolicy(
        max_reads=max_reads,
        expires=expires,
        allow_forward=requested.allow_forward and parent.allow_forward,
        purpose=requested.purpose or parent.purpose,
    )


_WIRE_ERRORS: dict[str, type] = {cls.__name__: cls for cls in (
    InvalidPolicy, UnknownContract, WrongConsumer, WrongState, PolicyExhausted,
    PolicyExpired, ForwardProhibited, UnknownUID,
)}

# SOVEREIGN answers a client reads, one key table each (docs/FORMATS.md).
# An ERROR or DENY body gives the audit detail "<code>: <detail>" and the
# error to raise, of the class the code names (else Nde4Error). Every other
# answer reads to (the contract it names, the value the call returns).
_FAILURE_BODY = json_body(
    lambda code, detail: (f"{code}: {detail}", _WIRE_ERRORS.get(code, Nde4Error)(detail)),
    (("code", "code", str), ("detail", "detail", str)),
)
_CONTRACT_ID = ("contract_id", "contractId", str)
_OFFER_ANSWER = json_body(lambda contract_id: (contract_id, None), (_CONTRACT_ID,))


def _accepted(contract_id: str, state: str) -> tuple[str, None]:
    """An ACCEPT answer completes the handshake only on the state ACTIVE."""
    if state != ACTIVE:
        raise ValueError(f"state {state!r}, expected {ACTIVE!r}")
    return contract_id, None


_ACCEPT_ANSWER = json_body(_accepted, (_CONTRACT_ID, ("state", "state", str)))
_DATA_HEADER = json_body(
    lambda contract_id, exhausted: (contract_id, exhausted),
    (_CONTRACT_ID, ("exhausted", "exhausted", bool)),
)
_FORWARD_GRANT = json_body(
    lambda contract_id, object_uid, origin, policy: (contract_id, (object_uid, origin, policy)),
    (
        _CONTRACT_ID,
        ("object_uid", "objectUid", str),
        ("origin", "origin", str),
        ("policy", "policy", policy_from_wire),
    ),
)


def _read_data(body: bytes) -> tuple[str, tuple[bytes, DataObject, bool]]:
    """(contract id, (object bytes, decoded object, exhausted)) of a DATA
    answer's body."""
    if len(body) < 4:
        raise ValueError(f"DATA body of {len(body)} bytes has no header length")
    (length,) = struct.unpack_from("<I", body)
    if 4 + length > len(body):
        raise ValueError(f"DATA header length {length} exceeds the body")
    contract_id, exhausted = _DATA_HEADER(body[4 : 4 + length])
    object_bytes = body[4 + length :]
    return contract_id, (object_bytes, decode_object(object_bytes), exhausted)


# request opcode -> (name, answer opcode, reader of the answer body, whether
# a failure is audited as a DENY)
_EXCHANGES = {
    OP_OFFER: ("OFFER", OP_OFFER, _OFFER_ANSWER, False),
    OP_ACCEPT: ("ACCEPT", OP_ACCEPT, _ACCEPT_ANSWER, False),
    OP_CONSUME: ("CONSUME", OP_DATA, _read_data, True),
    OP_FORWARD: ("FORWARD", OP_FORWARD, _FORWARD_GRANT, True),
}


class Connector:
    """One company's connector; provider and consumer roles in one object."""

    def __init__(
        self,
        name: str,
        owner: InstanceId,
        clock: LogicalClock,
        archive: Archive | None = None,
        audit_dir: str | Path | None = None,
        certified: Iterable[InstanceId] | None = None,
        taps: list[Callable[[bytes], None]] | None = None,
    ):
        if not is_id_token(name):
            raise ValueError(f"connector name not a valid token: {name!r}")
        self.name = name
        self.owner = owner
        self._clock = clock
        self._archive = archive
        self._contracts: dict[str, UsageContract] = {}  # provider side
        self._mirrors: dict[str, str] = {}  # contract_id -> provider owner key
        self._cache: dict[str, bytes] = {}
        self._audit: list[AuditEvent] = []
        self._peers: dict[str, "Connector"] = {}
        self._certified = set(certified) if certified is not None else None
        self._taps = taps if taps is not None else []
        self._counter = 0
        self._lock = threading.RLock()
        # one lock per consumed contract, held across the full consume round
        # trip so the audit trail reflects causal order, not thread scheduling
        self._consume_serial: dict[str, threading.Lock] = {}
        self._handlers = {
            OP_OFFER: json_body(self._handle_offer, _OFFER_BODY),
            OP_ACCEPT: json_body(self._handle_accept, _SENDER_BODY),
            OP_CONSUME: json_body(self._handle_consume, _SENDER_BODY),
            OP_FORWARD: json_body(self._handle_forward, _FORWARD_BODY),
        }
        self._audit_path: Path | None = None
        if audit_dir is not None:
            directory = Path(audit_dir)
            directory.mkdir(parents=True, exist_ok=True)
            self._audit_path = directory / f"{AUDIT_FILE_PREFIX}{name}{AUDIT_FILE_SUFFIX}"

    # --- wiring -----------------------------------------------------------

    def link(self, other: "Connector") -> None:
        self._peers[str(other.owner)] = other
        other._peers[str(self.owner)] = self

    def _peer_for_owner(self, owner_key: str) -> "Connector":
        peer = self._peers.get(owner_key)
        if peer is None:
            raise WrongConsumer(f"no linked connector for {owner_key}")
        return peer

    def _call(self, peer: "Connector", opcode: int, contract_id: str, body: bytes):
        """Send one request about `contract_id`; the value of its answer, read
        as _EXCHANGES says. An ERROR or DENY raises the error its body names.
        Another opcode, a body the reader refuses with ValueError, or an
        answer about another contract raises Nde4Error "unreadable <op>
        response"; an Nde4Error of the reader or of the frame propagates.
        Where _EXCHANGES says so, each failure is first audited as a DENY."""
        name, answer, read, audit_deny = _EXCHANGES[opcode]
        request = encode_frame(Channel.SOVEREIGN, bytes([opcode]) + body)
        for tap_fn in list(self._taps):
            tap_fn(request)
        response = peer.handle(request)
        for tap_fn in list(self._taps):
            tap_fn(response)
        try:
            payload = decode_frame(response).payload
            if not payload:
                raise ValueError("empty payload")
            if payload[0] in (OP_ERROR, OP_DENY):
                detail, error = _FAILURE_BODY(payload[1:])
            elif payload[0] != answer:
                raise ValueError(f"opcode {payload[0]:#x}, expected {answer:#x}")
            else:
                named, value = read(payload[1:])
                if named == contract_id:
                    return value
                raise ValueError(f"answer names contract {named!r}, not {contract_id!r}")
        except ValueError as exc:
            error = Nde4Error(f"unreadable {name} response: {exc}")
            detail = f"Nde4Error: {error}"
        except Nde4Error as exc:
            detail, error = f"{type(exc).__name__}: {exc}", exc
        if audit_deny:
            self._audit_event(DENY, contract_id, detail)
        raise error

    def _audit_event(self, action: str, contract_id: str, detail: str = "") -> None:
        with self._lock:
            event = AuditEvent(self._clock.now_text(), contract_id, action, detail)
            self._audit.append(event)
            if self._audit_path is not None:
                append_line(self._audit_path, canonical_json(
                    {"at": event.at, "contractId": contract_id, "action": action, "detail": detail}
                ))

    def audit_events(self, contract_id: str | None = None) -> tuple[AuditEvent, ...]:
        with self._lock:
            events = tuple(self._audit)
        if contract_id is None:
            return events
        return tuple(e for e in events if e.contract_id == contract_id)

    # --- provider side ------------------------------------------------------

    def offer(
        self, consumer: InstanceId, object_uid: str, policy: UsagePolicy
    ) -> str:
        with self._lock:
            if self._archive is None or not self._archive.has(object_uid):
                raise UnknownUID(object_uid)
            return self._offer_locked(consumer, object_uid, policy, str(self.owner))

    def _offer_locked(
        self, consumer: InstanceId, object_uid: str, policy: UsagePolicy,
        origin: str,
    ) -> str:
        problems = policy_problems(policy, self._clock.now_text())
        if problems:
            raise InvalidPolicy("; ".join(problems))
        if self._certified is not None and consumer not in self._certified:
            raise WrongConsumer(f"consumer not certified: {consumer}")
        peer = self._peer_for_owner(str(consumer))
        self._counter += 1
        contract_id = f"ctr-{self.name}-{self._counter}"
        self._contracts[contract_id] = UsageContract(
            contract_id=contract_id,
            provider=self.owner,
            consumer=consumer,
            object_uid=object_uid,
            policy=policy,
            origin=origin,
        )
        self._audit_event(OFFER, contract_id, f"to {consumer} uid {object_uid}")
        body = canonical_json(
            {
                "contractId": contract_id,
                "provider": str(self.owner),
                "consumer": str(consumer),
                "objectUid": object_uid,
                "policy": _policy_to_wire(policy),
            }
        )
        self._call(peer, OP_OFFER, contract_id, body)
        return contract_id

    def revoke(self, contract_id: str) -> None:
        with self._lock:
            contract = self._contracts.get(contract_id)
            if contract is None:
                raise UnknownContract(contract_id)
            if contract.state in TERMINAL:
                raise WrongState(f"{contract_id} is {contract.state}")
            contract.state = REVOKED
            self._audit_event(REVOKE, contract_id)

    def contract(self, contract_id: str) -> UsageContract:
        with self._lock:
            contract = self._contracts.get(contract_id)
            if contract is None:
                raise UnknownContract(contract_id)
            return replace(contract)  # snapshot copy

    # --- consumer side -------------------------------------------------------

    def accept(self, contract_id: str) -> None:
        peer = self._provider_peer(contract_id)
        body = canonical_json({"contractId": contract_id, "from": str(self.owner)})
        self._call(peer, OP_ACCEPT, contract_id, body)
        self._audit_event(ACCEPT, contract_id)

    def consume(self, contract_id: str) -> DataObject:
        peer = self._provider_peer(contract_id)
        with self._serial_for(contract_id):
            body = canonical_json({"contractId": contract_id, "from": str(self.owner)})
            # the bytes are cached only once they decode
            object_bytes, obj, exhausted = self._call(peer, OP_CONSUME, contract_id, body)
            with self._lock:
                self._cache[contract_id] = object_bytes
                self._audit_event(READ, contract_id, f"{len(object_bytes)} bytes")
                if exhausted:
                    del self._cache[contract_id]
                    self._audit_event(DELETE, contract_id, "cache erased on exhaustion")
        return obj

    def _serial_for(self, contract_id: str) -> threading.Lock:
        with self._lock:
            return self._consume_serial.setdefault(contract_id, threading.Lock())

    def forward(
        self,
        contract_id: str,
        third_party: InstanceId,
        requested: UsagePolicy | None = None,
    ) -> str:
        peer = self._provider_peer(contract_id)
        body = canonical_json(
            {
                "contractId": contract_id,
                "from": str(self.owner),
                "requestedPolicy": (
                    _policy_to_wire(requested) if requested is not None else None
                ),
            }
        )
        object_uid, origin, policy = self._call(peer, OP_FORWARD, contract_id, body)
        with self._lock:
            return self._offer_locked(third_party, object_uid, policy, origin)

    def cached(self, contract_id: str) -> bool:
        with self._lock:
            return contract_id in self._cache

    def _provider_peer(self, contract_id: str) -> "Connector":
        with self._lock:
            owner_key = self._mirrors.get(contract_id)
        if owner_key is None:
            raise UnknownContract(contract_id)
        return self._peer_for_owner(owner_key)

    # --- wire dispatch --------------------------------------------------------

    def request(self, payload: bytes) -> bytes:
        """Serve one SOVEREIGN request payload; returns the response payload."""
        return dispatch(self._handlers, payload)

    def handle(self, frame_bytes: bytes) -> bytes:
        """Serve one SOVEREIGN request frame; returns the response frame."""
        return serve_frame(Channel.SOVEREIGN, self.request, frame_bytes)

    def _handle_offer(self, contract_id: str, provider: str, consumer: str,
                      object_uid: str, policy: UsagePolicy) -> bytes:
        """Mirror an offered contract; the consumer side keeps only its provider."""
        with self._lock:
            self._mirrors[contract_id] = provider
        return bytes([OP_OFFER]) + canonical_json({"contractId": contract_id})

    def _consumer_contract(self, contract_id: str, sender: str) -> UsageContract:
        """The contract `contract_id`, if `sender` is its consumer; hold the lock."""
        contract = self._contracts.get(contract_id)
        if contract is None:
            raise UnknownContract(contract_id)
        if sender != str(contract.consumer):
            raise WrongConsumer(f"{sender} is not {contract.consumer}")
        return contract

    def _handle_accept(self, contract_id: str, sender: str) -> bytes:
        with self._lock:
            contract = self._consumer_contract(contract_id, sender)
            if contract.state != OFFERED:
                raise WrongState(f"{contract_id} is {contract.state}, not {OFFERED}")
            contract.state = ACTIVE  # handshake completes immediately at desk scale
            self._audit_event(ACCEPT, contract_id, f"by {contract.consumer}")
        return bytes([OP_ACCEPT]) + canonical_json(
            {"contractId": contract_id, "state": ACTIVE}
        )

    def _handle_consume(self, contract_id: str, sender: str) -> bytes:
        with self._lock:
            contract = self._consumer_contract(contract_id, sender)
            now = self._clock.now_text()
            if contract.state == EXHAUSTED:
                self._audit_event(DENY, contract_id, "exhausted")
                raise PolicyExhausted(contract_id)
            if contract.state == EXPIRED:
                self._audit_event(DENY, contract_id, "expired")
                raise PolicyExpired(contract_id)
            if contract.state == REVOKED:
                self._audit_event(DENY, contract_id, "revoked")
                raise WrongState(f"{contract_id} is {REVOKED}")
            if contract.state != ACTIVE:
                self._audit_event(DENY, contract_id, f"state {contract.state}")
                raise WrongState(f"{contract_id} is {contract.state}, not {ACTIVE}")
            if contract.policy.expires is not None and now > contract.policy.expires:
                contract.state = EXPIRED
                self._audit_event(EXPIRE, contract_id, f"at {now}")
                raise PolicyExpired(contract_id)
            object_bytes = self._origin_bytes(contract)
            contract.reads_done += 1
            exhausted = (
                contract.policy.max_reads is not UNLIMITED
                and contract.reads_done >= contract.policy.max_reads
            )
            if exhausted:
                contract.state = EXHAUSTED
            self._audit_event(
                READ, contract_id,
                f"read {contract.reads_done}"
                + (f" of {contract.policy.max_reads}" if contract.policy.max_reads else ""),
            )
        header = canonical_json({"contractId": contract_id, "exhausted": exhausted})
        return bytes([OP_DATA]) + struct.pack("<I", len(header)) + header + object_bytes

    def _handle_forward(self, contract_id: str, sender: str,
                        requested: UsagePolicy | None = None) -> bytes:
        with self._lock:
            contract = self._consumer_contract(contract_id, sender)
            if contract.state != ACTIVE:
                raise WrongState(f"{contract_id} is {contract.state}, not {ACTIVE}")
            if not contract.policy.allow_forward:
                self._audit_event(DENY, contract_id, "forwarding prohibited")
                return error_payload("ForwardProhibited", contract_id, OP_DENY)
            granted = clamp_policy(contract.policy, contract.remaining_reads, requested)
        return bytes([OP_FORWARD]) + canonical_json(
            {
                "contractId": contract_id,
                "objectUid": contract.object_uid,
                "origin": contract.origin,
                "policy": _policy_to_wire(granted),
            }
        )

    # --- data plane -------------------------------------------------------------

    def _origin_bytes(self, contract: UsageContract) -> bytes:
        """Bytes for a contract's object: own archive, or the origin connector
        for contracts derived through forwarding."""
        if contract.origin == str(self.owner):
            if self._archive is None:
                raise UnknownUID(contract.object_uid)
            return self._archive.fetch_bytes(contract.object_uid)
        origin_peer = self._peer_for_owner(contract.origin)
        return origin_peer._serve_origin(contract.object_uid)

    def _serve_origin(self, object_uid: str) -> bytes:
        with self._lock:
            if self._archive is None or not self._archive.has(object_uid):
                raise UnknownUID(object_uid)
            return self._archive.fetch_bytes(object_uid)

