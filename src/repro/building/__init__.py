"""Buildings: geometry, floor plans, and canonical layouts.

The paper's location granule is the room (§2); this package models the
rooms-and-passages graph that the mobility and core layers share.
"""
