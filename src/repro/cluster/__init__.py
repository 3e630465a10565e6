"""Clustering: DBSCAN over perceptual-hash distances, and campaign filters."""

from repro.cluster.dbscan import DBSCAN_NOISE, dbscan
from repro.cluster.incremental import IncrementalDBSCAN
from repro.cluster.filtering import distinct_e2lds, filter_clusters_by_domains

__all__ = [
    "dbscan",
    "DBSCAN_NOISE",
    "IncrementalDBSCAN",
    "distinct_e2lds",
    "filter_clusters_by_domains",
]
