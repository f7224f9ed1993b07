"""Geographic normality analysis of Internet paths.

Classifies traceroutes as geographically normal or non-normal using
population-biased spherical convex hulls between source and destination
countries, and aggregates degree-of-normality statistics for the physical,
legal, and union exposure of traffic to nation states.
"""

__version__ = "0.1.0"
