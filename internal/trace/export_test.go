package trace

// ChainNodes counts the distinct nodes on the chains of ts, not
// descending into spliced chains, and the entries those nodes hold.
func ChainNodes(ts []*Trace) (nodes, entries int) {
	seen := make(map[*path]bool)
	for _, t := range ts {
		for q := t.path; q != nil && !seen[q]; q = q.prev {
			seen[q] = true
			nodes++
			entries += q.n - q.prev.len()
		}
	}
	return nodes, entries
}
