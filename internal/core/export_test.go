package core

// memoStats returns how many replayed chunks the graph's replay memo
// answered and how many it had to replay, since the graph's last Reset.
func (g *Graph) memoStats() (hits, misses int64) {
	if g.memo == nil {
		return 0, 0
	}
	return g.memo.hits, g.memo.misses
}

// forget empties the memo, as if newly allocated.
func (m *replayMemo) forget() {
	*m = replayMemo{words: m.words}
	clear(m.words)
}
