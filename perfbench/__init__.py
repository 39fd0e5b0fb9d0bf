"""Host-time benchmark of the ClusterBFT reproduction; see README.md."""
