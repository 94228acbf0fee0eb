package trace

// A Consumer scans the traces of one function through Walk.  Its state
// is whatever it derives from the entries consumed since the current
// trace began; Walk asks it to save that state where a later trace
// restarts, so it must derive the state from those entries alone.
type Consumer interface {
	// Reset begins a trace from the empty prefix.
	Reset()
	// Restore begins a trace from the state saved in slot.
	Restore(slot int)
	// Consume scans the next run of entries of the current trace.
	Consume(run []Entry)
	// Save records the current state in slot, replacing what the slot
	// held.
	Save(slot int)
	// End closes the current trace.
	End()
}

// Walk scans ts in order, each trace once, and consumes every chain node
// the traces share only once.  Each trace restarts from the state saved
// at its deepest chain node shared with an earlier trace and consumes
// only the nodes after it; the first trace that contains a node is the
// one that consumes it.  A state is saved only at a node that some later
// trace restarts from, and its slot is free for the next save after its
// last restart.  End runs once per trace.  A trace built with Entries
// and no chain is consumed whole from the empty prefix.
//
// A consumer whose state before a node depends only on the entries
// before it sees, at every End, the state a scan of the whole trace from
// the empty prefix would reach.  What it skips is its own earlier work:
// the nodes a trace restarts past were consumed, from the same state, by
// the trace that consumed them first.
func Walk(ts []*Trace, c Consumer) {
	// Plan: lay the nodes out in consumption order.  order[lo:hi] are the
	// nodes trace i consumes, after the node at index from (-1: none).
	type span struct{ from, lo, hi int32 }
	spans := make([]span, len(ts))
	var order []*path
	var restarts []int32 // per order index: traces restarting after it
	index := make(map[*path]int32)
	var stack []*path
	for i, t := range ts {
		stack = stack[:0]
		sp := span{from: -1, lo: int32(len(order))}
		for q := t.path; q != nil; q = q.prev {
			if k, seen := index[q]; seen {
				sp.from = k
				restarts[k]++
				break
			}
			stack = append(stack, q)
		}
		for j := len(stack) - 1; j >= 0; j-- {
			index[stack[j]] = int32(len(order))
			order = append(order, stack[j])
			restarts = append(restarts, 0)
		}
		sp.hi = int32(len(order))
		spans[i] = sp
	}

	// Scan, saving state after each node some later trace restarts from.
	slots := make([]int32, len(order)) // per order index, once saved
	var free []int32
	next := int32(0)
	consume := func(run []Entry) bool {
		c.Consume(run)
		return true
	}
	for i, t := range ts {
		sp := spans[i]
		switch {
		case t.path == nil:
			c.Reset()
			if len(t.Entries) > 0 {
				c.Consume(t.Entries)
			}
		case sp.from < 0:
			c.Reset()
		default:
			slot := slots[sp.from]
			c.Restore(int(slot))
			if restarts[sp.from]--; restarts[sp.from] == 0 {
				free = append(free, slot)
			}
		}
		for k := sp.lo; k < sp.hi; k++ {
			order[k].own(consume)
			if restarts[k] == 0 {
				continue
			}
			slot := next
			if n := len(free); n > 0 {
				slot, free = free[n-1], free[:n-1]
			} else {
				next++
			}
			slots[k] = slot
			c.Save(int(slot))
		}
		c.End()
	}
}
