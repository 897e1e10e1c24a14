"""A test-local router that computes every XY route live.

The network models take their routes from one ``router`` (anything with
``path(src, dst)``); the simulator passes the route cache, or the fault
injector's router once links have died.  Tests that want the topology's
XY routes with no memo in between pass this one.
"""


class LiveXY:
    """Routes each send on ``topology.xy_path``."""

    def __init__(self, topology):
        self.path = topology.xy_path
