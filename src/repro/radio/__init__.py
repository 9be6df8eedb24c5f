"""Radio substrate: band interference and the collision channel."""
