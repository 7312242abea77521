"""Classic full dynamic-programming Levenshtein distance, the test oracle.

Deliberately the textbook O(len(a) * len(b)) table with no shortcuts, so the
bit-parallel kernels of :mod:`repro.metrics.string` are checked against an
implementation that shares none of their tricks.
"""

from __future__ import annotations


def reference_edit_distance(a: str, b: str) -> int:
    """Levenshtein distance of ``a`` and ``b`` by the full DP table."""
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        dp[i][0] = i
    for j in range(len(b) + 1):
        dp[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[-1][-1]
