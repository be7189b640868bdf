"""Outside-timed benchmark of the simulator, the generator and the client."""
