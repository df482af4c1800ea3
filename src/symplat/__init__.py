"""Symmetric cluster platform simulator: reservation scheduling over an
extended resource vector, deterministic node engine, telemetry bus, and a
line-protocol platform API. Each name is imported from its module, such as
`symplat.scheduler` or `symplat.harness`."""
