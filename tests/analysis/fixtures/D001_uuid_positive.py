"""Fixture: uuid1/uuid4 ids differ on every run and must trip D001."""
import uuid
from uuid import uuid1 as clock_uuid


def session_id():
    return uuid.uuid4().hex[:16]


def node_id():
    return clock_uuid().hex
