"""The three workloads: message formats, seeded request values, clients,
and the correctness check of every reply.

The server and the generator both import this module, so the formats a
server registers are the formats its clients speak.  Values come only
from ``--seed``: the program under test sees the generated values and
nothing that identifies a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.bench.loadgen import ECHO_REPLY_LITE, ECHO_REQUEST, QUALITY_FILE
from repro.pbio import Format, FormatRegistry

#: the bulk workload's formats and its ``server_load`` policy: the same
#: shape and threshold as the loadgen echo deployment (full reply type
#: below 0.85, the payload-less reduced type above it)
BULK_REQUEST = Format.from_dict(
    "BulkEcho", {"seq": "int32", "payload": "int32[]"})
BULK_REPLY_LITE = Format.from_dict("BulkEchoLite", {"seq": "int32"})
BULK_QUALITY_FILE = """
attribute server_load
history 2
0.0 0.85 - BulkEcho
0.85 inf - BulkEchoLite
"""

OPERATION = "Echo"


@dataclass(frozen=True)
class Workload:
    name: str
    #: "bin" drives SoapBinClient, "xml" drives XmlQualityClient
    protocol: str
    request: Format
    reply_lite: Format
    quality_text: str
    make_values: Callable[[int], List[Dict[str, Any]]]


def _distinct_floats(count: int, elements: int) -> Callable[[int], list]:
    """``count`` values, each with its own ``seq``, so no two requests of
    one cycle share a cache key."""
    def make(seed: int) -> List[Dict[str, Any]]:
        rng = random.Random(seed)
        return [{"seq": i,
                 "payload": [rng.uniform(-1e3, 1e3) for _ in range(elements)]}
                for i in range(count)]
    return make


def _bulk_ints(seed: int) -> List[Dict[str, Any]]:
    """8 values of 4096 ints in 0..99.  Each is a seeded shuffle of one
    fixed multiset, so the compact (varint) size of every value, and the
    bytes on the wire, are the same for every seed."""
    rng = random.Random(seed)
    base = [k % 100 for k in range(4096)]
    values = []
    for i in range(8):
        payload = list(base)
        rng.shuffle(payload)
        values.append({"seq": i, "payload": payload})
    return values


WORKLOADS: Dict[str, Workload] = {
    # 4096 distinct values: more than the 1024-entry default response
    # cache, cycled, so no value repeats while it could still be cached
    "small_bin_rpc": Workload("small_bin_rpc", "bin", ECHO_REQUEST,
                              ECHO_REPLY_LITE, QUALITY_FILE,
                              _distinct_floats(4096, 16)),
    "bulk_int_rpc": Workload("bulk_int_rpc", "bin", BULK_REQUEST,
                             BULK_REPLY_LITE, BULK_QUALITY_FILE, _bulk_ints),
    # the same 4096-value cycled pool as small_bin_rpc
    "xml_interop": Workload("xml_interop", "xml", ECHO_REQUEST,
                            ECHO_REPLY_LITE, QUALITY_FILE,
                            _distinct_floats(4096, 256)),
}


def registry_for(workload: Workload) -> FormatRegistry:
    registry = FormatRegistry()
    registry.register(workload.request)
    registry.register(workload.reply_lite)
    return registry


def build_service(workload: Workload):
    """The service under test: a quality-managed SOAP-bin echo built the
    way the loadgen and extract-serve deployments build theirs."""
    from repro.core import SoapBinService
    service = SoapBinService(registry_for(workload),
                             quality_text=workload.quality_text, wire="auto")
    service.add_operation(OPERATION, workload.request, workload.request,
                          lambda params: params)
    return service


def make_client(workload: Workload, channel):
    from repro.core import SoapBinClient, XmlQualityClient
    registry = registry_for(workload)
    if workload.protocol == "xml":
        return XmlQualityClient(channel, registry)
    return SoapBinClient(channel, registry, wire="auto")


def matches(value: Dict[str, Any], result: Dict[str, Any]) -> bool:
    """Field-for-field equality of a reply with its request."""
    return (set(result) == set(value)
            and result["seq"] == value["seq"]
            and list(result["payload"]) == value["payload"])
