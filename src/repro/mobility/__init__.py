"""Pedestrian mobility: speeds, residence times, and room-to-room walks."""
