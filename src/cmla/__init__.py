"""Black-box leakage audit for synthetic tabular data.

The pipeline samples a synthetic table, encodes it into a shared numeric
representation fitted on the synthetic data alone, clusters the encoded rows
with DBSCAN, extracts one medoid per cluster, and measures how close those
medoids sit to the real table. Attack success rate and coverage over a
threshold grid summarize how much of the real data the generator leaks.
"""

__version__ = "0.1.0"
