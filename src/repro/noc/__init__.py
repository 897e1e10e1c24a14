"""On-chip network models: topology, analytic latency, mesh, SMART, traffic."""

from repro.noc.latency import (
    BUS,
    FBFLY_NARROW,
    FBFLY_WIDE,
    MESH,
    NocParams,
    fbfly_hops,
    nocstar_params,
    smart_params,
)
from repro.noc.bus import BusNetwork
from repro.noc.fbfly import FlattenedButterfly
from repro.noc.mesh import ContentionFreeMesh, Traversal
from repro.noc.route_cache import RouteCache, shared_route_cache
from repro.noc.smart import SmartNetwork
from repro.noc.synthetic import (
    TrafficResult,
    run_mesh_traffic,
    run_nocstar_traffic,
)
from repro.noc.topology import Link, MeshTopology
from repro.noc.tradeoffs import NocEvaluation, evaluate_designs

__all__ = [
    "BUS",
    "FBFLY_NARROW",
    "FBFLY_WIDE",
    "MESH",
    "NocParams",
    "fbfly_hops",
    "nocstar_params",
    "smart_params",
    "BusNetwork",
    "FlattenedButterfly",
    "ContentionFreeMesh",
    "Traversal",
    "RouteCache",
    "shared_route_cache",
    "SmartNetwork",
    "TrafficResult",
    "run_mesh_traffic",
    "run_nocstar_traffic",
    "Link",
    "MeshTopology",
    "NocEvaluation",
    "evaluate_designs",
]
